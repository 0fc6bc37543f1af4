package main

import (
	"fmt"
	"io"

	"repro/internal/api"
	"repro/pkg/client"
)

// render writes one op's response document as terminal text. Local and
// -server mode both end here, so the same request prints the same text.
func render(w io.Writer, v any, color bool) {
	switch v := v.(type) {
	case *client.ExplainResponse:
		renderExplain(w, v, color)
	case *client.GroupResponse:
		renderGroup(w, v)
	case *client.DrillResponse:
		renderDrill(w, v)
	case *client.EvolutionResponse:
		renderEvolution(w, v)
	}
}

// renderExplain draws the terminal choropleths from the response
// document.
func renderExplain(w io.Writer, ex *client.ExplainResponse, color bool) {
	fmt.Fprint(w, api.ExplainMaps(ex).ASCII(color))
	fmt.Fprintf(w, "\n%d items, %d ratings, overall μ=%.2f σ=%.2f (mined in %.0fms)\n",
		len(ex.ItemIDs), ex.NumRatings, ex.OverallMean, ex.OverallStd, ex.ElapsedMS)
	for _, tr := range ex.Tasks {
		fmt.Fprintf(w, "%s: objective=%.4f coverage=%.0f%% (α=%.0f%%)\n",
			tr.Task, tr.Objective, tr.Coverage*100, tr.RelaxedCoverage*100)
	}
}

func renderGroup(w io.Writer, g *client.GroupResponse) {
	fmt.Fprintf(w, "%s\n  μ=%.2f σ=%.2f n=%d share=%.1f%%\n\n",
		g.Group.Phrase, g.Group.Mean, g.Group.Std, g.Group.Count, g.Group.Share*100)
	fmt.Fprintln(w, "rating distribution:")
	maxCount := 1
	for _, n := range g.Histogram {
		maxCount = max(maxCount, n)
	}
	for i, n := range g.Histogram {
		fmt.Fprintf(w, "  %d★ %-40s %d\n", i+1, bar(n, maxCount), n)
	}
	if len(g.Cities) > 0 {
		fmt.Fprintln(w, "\ncity drill-down:")
		for _, c := range g.Cities {
			fmt.Fprintf(w, "  %-20s μ=%.2f n=%d\n", c.City, c.Mean, c.Count)
		}
	}
	if len(g.Timeline) > 0 {
		fmt.Fprintln(w, "\nrating evolution:")
		for _, b := range g.Timeline {
			if b.Count == 0 {
				fmt.Fprintf(w, "  %-18s —\n", b.Label)
				continue
			}
			fmt.Fprintf(w, "  %-18s μ=%.2f n=%d\n", b.Label, b.Mean, b.Count)
		}
	}
	if len(g.Related) > 0 {
		fmt.Fprintln(w, "\nrelated groups:")
		for _, r := range g.Related {
			fmt.Fprintf(w, "  %-55s μ=%.2f n=%d\n", r.Phrase, r.Mean, r.Count)
		}
	}
	if len(g.Refinements) > 0 {
		fmt.Fprintln(w, "\ndrill deeper (most deviant refinements):")
		for _, r := range g.Refinements {
			fmt.Fprintf(w, "  %-55s μ=%.2f n=%-5d Δ%+.2f (+%s)\n",
				r.Group.Phrase, r.Group.Mean, r.Group.Count, r.Delta, r.Added)
		}
	}
}

func renderDrill(w io.Writer, d *client.DrillResponse) {
	fmt.Fprintf(w, "city-level drill-down mining inside %s:\n", d.Parent)
	for _, g := range d.Result.Groups {
		fmt.Fprintf(w, "  %-55s μ=%.2f n=%d\n", g.Phrase, g.Mean, g.Count)
	}
	fmt.Fprintf(w, "objective=%.4f coverage=%.0f%% of the group's ratings\n",
		d.Result.Objective, d.Result.Coverage*100)
}

func renderEvolution(w io.Writer, ev *client.EvolutionResponse) {
	fmt.Fprintf(w, "time slider — %s\n", ev.Query)
	for _, p := range ev.Points {
		if p.Error != nil || p.Explain == nil {
			msg := ""
			if p.Error != nil {
				msg = p.Error.Message
			}
			fmt.Fprintf(w, "%d: (no result: %s)\n", p.Year, msg)
			continue
		}
		fmt.Fprintf(w, "%d: %d ratings, μ=%.2f\n", p.Year, p.Explain.NumRatings, p.Explain.OverallMean)
		for _, tr := range p.Explain.Tasks {
			if tr.Task != "SM" {
				continue
			}
			for _, g := range tr.Groups {
				fmt.Fprintf(w, "    %-55s μ=%.2f n=%d\n", g.Phrase, g.Mean, g.Count)
			}
		}
	}
}

func bar(n, max int) string {
	if max == 0 {
		return ""
	}
	w := n * 40 / max
	out := make([]byte, w)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}
