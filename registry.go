package maprat

import (
	"fmt"
	"time"
)

// DatasetInfo describes one mounted dataset for monitoring (/statsz)
// and the snap CLI: where it came from and what opening it cost.
type DatasetInfo struct {
	// Name is the mount name requests select the dataset by.
	Name string
	// Source is how the dataset was opened: "snapshot", "text" or
	// "generated".
	Source string
	// Path is the snapshot file or data directory ("" for generated).
	Path string
	// FileSize is the snapshot file's size in bytes (0 when not file-backed).
	FileSize int64
	// OpenDuration is the wall time from bytes to a ready engine.
	OpenDuration time.Duration
}

// Mount pairs a mounted miner with its dataset identity. The field keeps
// the name Engine, but any Miner mounts (the perfbench traced run mounts
// a wrapper around a local engine).
type Mount struct {
	Name   string
	Engine Miner
	Info   DatasetInfo
}

// Registry is an ordered set of mounted datasets served by one process.
// The first mount is the default — requests that name no dataset get it,
// which keeps a single-dataset server's behaviour unchanged. A Registry
// is built once at startup and read-only afterwards, so lookups need no
// locking on the request path.
type Registry struct {
	mounts []*Mount
	byName map[string]*Mount
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Mount)}
}

// NewSingleRegistry wraps one engine as the sole (default) mount — the
// compatibility construction for servers that predate multi-dataset
// serving.
func NewSingleRegistry(name string, eng Miner, info DatasetInfo) *Registry {
	r := NewRegistry()
	if err := r.Add(name, eng, info); err != nil {
		// Only a duplicate name can fail, impossible with one mount.
		panic(err)
	}
	return r
}

// Add mounts a miner under a name. Names are case-sensitive and must
// be unique; the first Add becomes the default dataset.
func (r *Registry) Add(name string, eng Miner, info DatasetInfo) error {
	if name == "" {
		return fmt.Errorf("maprat: empty dataset name")
	}
	if eng == nil {
		return fmt.Errorf("maprat: nil engine for dataset %q", name)
	}
	if _, dup := r.byName[name]; dup {
		return fmt.Errorf("maprat: dataset %q mounted twice", name)
	}
	info.Name = name
	m := &Mount{Name: name, Engine: eng, Info: info}
	r.mounts = append(r.mounts, m)
	r.byName[name] = m
	return nil
}

// Default returns the first mount, or nil for an empty registry.
func (r *Registry) Default() *Mount {
	if len(r.mounts) == 0 {
		return nil
	}
	return r.mounts[0]
}

// Lookup resolves a request's dataset name; "" selects the default.
func (r *Registry) Lookup(name string) (*Mount, bool) {
	if name == "" {
		m := r.Default()
		return m, m != nil
	}
	m, ok := r.byName[name]
	return m, ok
}

// Names returns the mount names in mount order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.mounts))
	for i, m := range r.mounts {
		out[i] = m.Name
	}
	return out
}

// Mounts returns the mounts in mount order. The slice is shared; treat
// it as read-only.
func (r *Registry) Mounts() []*Mount { return r.mounts }

// Len returns the number of mounted datasets.
func (r *Registry) Len() int { return len(r.mounts) }

// Close closes every mounted engine, returning the first error.
func (r *Registry) Close() error {
	var first error
	for _, m := range r.mounts {
		if err := m.Engine.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
