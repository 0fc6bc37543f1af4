package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// runVet drives the real CLI entry point and captures both streams.
func runVet(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code = run(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

func TestCLI(t *testing.T) {
	cases := []struct {
		name       string
		args       []string
		wantCode   int
		wantOut    []string // substrings of stdout
		wantErr    []string // substrings of stderr
		wantOutLen int      // -1: don't care, 0: stdout must be empty
	}{
		{
			name:       "list prints the rule catalog",
			args:       []string{"-list"},
			wantCode:   0,
			wantOut:    []string{"determinism", "ctxflow", "aliasguard", "errflow", "hotalloc", "suppress"},
			wantOutLen: -1,
		},
		{
			name:       "unknown analyzer exits 2 with the valid names",
			args:       []string{"-analyzers=bogus", "./..."},
			wantCode:   2,
			wantErr:    []string{`unknown analyzer "bogus"`, "valid:", "ctxflow", "errflow"},
			wantOutLen: 0,
		},
		{
			name:       "empty analyzer list exits 2",
			args:       []string{"-analyzers=,", "./..."},
			wantCode:   2,
			wantErr:    []string{"named no analyzer", "valid:"},
			wantOutLen: 0,
		},
		{
			name:       "clean tree exits 0 silently",
			args:       []string{"-C", "testdata/clean", "./..."},
			wantCode:   0,
			wantOutLen: 0,
		},
		{
			name:       "findings exit 1 in text format",
			args:       []string{"-C", "testdata/dirty", "./..."},
			wantCode:   1,
			wantOut:    []string{"bad.go:6:9: errflow:"},
			wantErr:    []string{"1 finding(s)"},
			wantOutLen: -1,
		},
		{
			name:       "github format emits ::error annotations",
			args:       []string{"-C", "testdata/dirty", "-format=github", "./..."},
			wantCode:   1,
			wantOut:    []string{"::error file=bad.go,line=6,col=9,title=maprat-vet errflow::"},
			wantOutLen: -1,
		},
		{
			name:       "unknown format exits 2",
			args:       []string{"-C", "testdata/clean", "-format=bogus", "./..."},
			wantCode:   2,
			wantErr:    []string{`unknown -format "bogus"`},
			wantOutLen: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out, errOut := runVet(t, tc.args...)
			if code != tc.wantCode {
				t.Fatalf("exit = %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.wantCode, out, errOut)
			}
			if tc.wantOutLen == 0 && out != "" {
				t.Errorf("stdout should be empty, got:\n%s", out)
			}
			for _, want := range tc.wantOut {
				if !strings.Contains(out, want) {
					t.Errorf("stdout missing %q:\n%s", want, out)
				}
			}
			for _, want := range tc.wantErr {
				if !strings.Contains(errOut, want) {
					t.Errorf("stderr missing %q:\n%s", want, errOut)
				}
			}
		})
	}
}

func TestCLIJSONFormat(t *testing.T) {
	code, out, _ := runVet(t, "-C", "testdata/dirty", "-format=json", "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var diags []map[string]any
	if err := json.Unmarshal([]byte(out), &diags); err != nil {
		t.Fatalf("stdout is not JSON: %v\n%s", err, out)
	}
	if len(diags) != 1 || diags[0]["analyzer"] != "errflow" {
		t.Fatalf("unexpected findings: %v", diags)
	}
}
