package api

import (
	"repro/internal/geo"
	"repro/internal/viz"
)

// GeoJSON is a FeatureCollection-shaped choropleth layer: one Polygon
// feature per shaded state, positioned on the same tile-grid cartogram
// the SVG renderer uses but projected into pseudo lon/lat so standard
// web-mapping clients (Leaflet, MapLibre, d3-geo) can render it without
// a separate basemap. Fill colours are precomputed server-side on the
// paper's red→green Likert scale so the client needs no scale logic.
type GeoJSON struct {
	Type     string    `json:"type"` // always "FeatureCollection"
	Features []Feature `json:"features"`
}

// Feature is one GeoJSON feature.
type Feature struct {
	Type       string          `json:"type"` // always "Feature"
	Geometry   Geometry        `json:"geometry"`
	Properties ShadeProperties `json:"properties"`
}

// Geometry is the feature's Polygon: a single counter-clockwise ring.
type Geometry struct {
	Type        string         `json:"type"` // always "Polygon"
	Coordinates [][][2]float64 `json:"coordinates"`
}

// ShadeProperties carries everything a client-side choropleth needs to
// shade and caption one state tile.
type ShadeProperties struct {
	State string `json:"state"`
	Name  string `json:"name"`
	// Mean drives the fill; Fill is the precomputed #rrggbb Likert
	// colour for clients that do not want to own the scale.
	Mean  float64 `json:"mean"`
	Count int     `json:"count"`
	Fill  string  `json:"fill"`
	// Label and Icons caption the dominant group on this tile ("" for
	// browse mode's whole-population shades).
	Label string `json:"label,omitempty"`
	Icons string `json:"icons,omitempty"`
}

// The cartogram projection: tile (row, col) → a pseudo lon/lat cell.
// Column 0 starts at the west edge, row 0 at the north edge; cell sizes
// keep the whole grid inside plausible US bounds.
const (
	geoWestLon  = -125.0
	geoNorthLat = 50.0
	geoCellLon  = 5.0
	geoCellLat  = 4.0
)

// tile is one state's feature geometry, built once: its name and its
// counter-clockwise ring. Every layer's feature for the state shares the
// ring, so callers must not modify a built layer's coordinates.
type tile struct {
	name string
	ring [][][2]float64
}

// tileRings holds every state's tile, keyed by state code.
var tileRings = func() map[string]tile {
	out := map[string]tile{}
	for _, st := range geo.States() {
		// The products are rounded on their own (float64(...)), so no
		// architecture fuses them into the additions.
		w := geoWestLon + float64(float64(st.Col)*geoCellLon)
		e := w + geoCellLon
		n := geoNorthLat - float64(float64(st.Row)*geoCellLat)
		s := n - geoCellLat
		out[st.Code] = tile{name: st.Name, ring: [][][2]float64{{{w, s}, {e, s}, {e, n}, {w, n}, {w, s}}}}
	}
	return out
}()

// geoJSON builds a map's choropleth layer: one feature per tile of
// viz.(*Map).Tiles, in tile order. It returns nil when no shade carries a
// state (framework mode), so a task's field is omitted rather than an
// empty collection.
func geoJSON(m *viz.Map) *GeoJSON {
	tiles := m.Tiles()
	if len(tiles) == 0 {
		return nil
	}
	gj := &GeoJSON{Type: "FeatureCollection"}
	for _, t := range tiles {
		st, ok := tileRings[t.State]
		if !ok {
			continue
		}
		gj.Features = append(gj.Features, Feature{
			Type:     "Feature",
			Geometry: Geometry{Type: "Polygon", Coordinates: st.ring},
			Properties: ShadeProperties{
				State: t.State,
				Name:  st.name,
				Mean:  t.Mean,
				Count: t.Support,
				Fill:  viz.Hex(t.Mean),
				Label: t.Label,
				Icons: t.Icons,
			},
		})
	}
	return gj
}
