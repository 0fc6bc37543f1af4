package main

import (
	"bytes"
	"flag"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"repro"
	"repro/internal/api"
)

// elapsed is the one figure allowed to differ between two runs of the
// same request: the mining wall time in the explain footer.
var elapsed = regexp.MustCompile(`mined in \d+ms`)

// TestLocalOutputMatchesServer runs each CLI mode twice over one engine —
// in process, and through -server against an httptest server — and
// requires identical output.
func TestLocalOutputMatchesServer(t *testing.T) {
	ds, err := maprat.Generate(maprat.SmallGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := maprat.Open(ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(api.NewMulti(maprat.NewSingleRegistry("default", eng, maprat.DatasetInfo{}), api.Config{}))
	t.Cleanup(srv.Close)

	for _, tc := range []struct {
		name string
		args []string
		want string // a line fragment the output must contain
	}{
		{"explain", []string{"-q", "genre:Drama"}, "Similarity Mining"},
		{"explore", []string{"-q", "genre:Drama", "-explore", "state=CA"}, "drill deeper"},
		{"drill", []string{"-q", "genre:Drama", "-drill", "state=CA"}, "city-level drill-down mining inside state=CA"},
		{"evolution", []string{"-q", `movie:"Toy Story"`, "-evolution"}, "time slider"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := parseFlags(tc.args, flag.ContinueOnError)
			if err != nil {
				t.Fatal(err)
			}
			var local bytes.Buffer
			if err := runLocal(t.Context(), &local, eng, cfg.run); err != nil {
				t.Fatalf("local: %v", err)
			}
			got := elapsed.ReplaceAllString(local.String(), "mined in Xms")
			if !strings.Contains(got, tc.want) {
				t.Fatalf("local output lacks %q:\n%s", tc.want, got)
			}
			var remote bytes.Buffer
			if err := runRemote(t.Context(), &remote, srv.URL, cfg.run); err != nil {
				t.Fatalf("remote: %v", err)
			}
			if r := elapsed.ReplaceAllString(remote.String(), "mined in Xms"); r != got {
				t.Errorf("-server output differs from local:\n--- local\n%s\n--- server\n%s", got, r)
			}
		})
	}
}

// TestModeSpecificKnobs pins the per-mode choices both modes share:
// -drill mines at α=0.25 whatever -coverage says, and -explore caps the
// refinement list.
func TestModeSpecificKnobs(t *testing.T) {
	drill, err := parseFlags([]string{"-coverage", "0.4", "-drill", "state=CA"}, flag.ContinueOnError)
	if err != nil {
		t.Fatal(err)
	}
	if drill.run.op != "drill" || *drill.run.params.Coverage != drillCoverage {
		t.Errorf("drill request = %s at α=%v, want drill at %v", drill.run.op, *drill.run.params.Coverage, drillCoverage)
	}
	explore, err := parseFlags([]string{"-explore", "state=CA"}, flag.ContinueOnError)
	if err != nil {
		t.Fatal(err)
	}
	if explore.run.op != "group" || explore.run.params.Limit == nil || *explore.run.params.Limit != exploreRefinements {
		t.Errorf("explore request = %s with limit %v, want group capped at %d", explore.run.op, explore.run.params.Limit, exploreRefinements)
	}
}
