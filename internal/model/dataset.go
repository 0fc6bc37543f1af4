package model

import "fmt"

// Dataset is a complete collaborative rating site D = ⟨I, U, R⟩ held in
// memory. Users and Items are addressable by ID through the lookup maps
// built by Reindex; Ratings is the flat rating log in load order.
type Dataset struct {
	Users   []User
	Items   []Item
	Ratings []Rating

	userByID map[int]int // user ID -> index into Users
	itemByID map[int]int // item ID -> index into Items
}

// NewDataset builds a dataset from pre-validated slices and indexes it.
func NewDataset(users []User, items []Item, ratings []Rating) (*Dataset, error) {
	d := &Dataset{Users: users, Items: items, Ratings: ratings}
	if err := d.Reindex(); err != nil {
		return nil, err
	}
	return d, nil
}

// Reindex rebuilds the ID lookup maps. It must be called after the Users or
// Items slices are mutated structurally.
func (d *Dataset) Reindex() error {
	d.userByID = make(map[int]int, len(d.Users))
	for i := range d.Users {
		id := d.Users[i].ID
		if _, dup := d.userByID[id]; dup {
			return fmt.Errorf("model: duplicate user id %d", id)
		}
		d.userByID[id] = i
	}
	d.itemByID = make(map[int]int, len(d.Items))
	for i := range d.Items {
		id := d.Items[i].ID
		if _, dup := d.itemByID[id]; dup {
			return fmt.Errorf("model: duplicate item id %d", id)
		}
		d.itemByID[id] = i
	}
	return nil
}

// UserIndex returns the position in Users of the user with the given ID,
// or -1 if absent.
func (d *Dataset) UserIndex(id int) int {
	if i, ok := d.userByID[id]; ok {
		return i
	}
	return -1
}

// ItemIndex returns the position in Items of the item with the given ID,
// or -1 if absent.
func (d *Dataset) ItemIndex(id int) int {
	if i, ok := d.itemByID[id]; ok {
		return i
	}
	return -1
}

// UserByID returns the user with the given ID, or nil if absent.
func (d *Dataset) UserByID(id int) *User {
	if i, ok := d.userByID[id]; ok {
		return &d.Users[i]
	}
	return nil
}

// ItemByID returns the item with the given ID, or nil if absent.
func (d *Dataset) ItemByID(id int) *Item {
	if i, ok := d.itemByID[id]; ok {
		return &d.Items[i]
	}
	return nil
}

// Validate checks every user and item and returns the first violation
// found. It does not check the rating log: store.Join, which every open
// and every snapshot write runs, checks each rating and its references
// once.
func (d *Dataset) Validate() error {
	for i := range d.Users {
		if err := d.Users[i].Validate(); err != nil {
			return err
		}
	}
	for i := range d.Items {
		if err := d.Items[i].Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Stats summarizes a dataset for logging and sanity checks.
type Stats struct {
	Users      int
	Items      int
	Ratings    int
	MeanScore  float64
	MinUnix    int64
	MaxUnix    int64
	ScoreCount [MaxScore + 1]int // ScoreCount[s] = number of ratings with score s
}

// Stats computes summary statistics over the rating log.
func (d *Dataset) Stats() Stats {
	s := Stats{Users: len(d.Users), Items: len(d.Items), Ratings: len(d.Ratings)}
	if len(d.Ratings) == 0 {
		return s
	}
	s.MinUnix = d.Ratings[0].Unix
	s.MaxUnix = d.Ratings[0].Unix
	total := 0
	for _, r := range d.Ratings {
		total += int(r.Score)
		if r.Score >= MinScore && r.Score <= MaxScore {
			s.ScoreCount[r.Score]++
		}
		if r.Unix < s.MinUnix {
			s.MinUnix = r.Unix
		}
		if r.Unix > s.MaxUnix {
			s.MaxUnix = r.Unix
		}
	}
	s.MeanScore = float64(total) / float64(len(d.Ratings))
	return s
}
