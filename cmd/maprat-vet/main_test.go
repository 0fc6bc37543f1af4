package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
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
			wantOut:    []string{"determinism", "lockcheck", "mergeorder", "errflow", "hotalloc", "suppress"},
			wantOutLen: -1,
		},
		{
			name:       "unknown analyzer exits 2 with the valid names",
			args:       []string{"-analyzers=bogus", "./..."},
			wantCode:   2,
			wantErr:    []string{`unknown analyzer "bogus"`, "valid:", "lockcheck", "errflow"},
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
			name:       "diff previews the fix and exits 1",
			args:       []string{"-C", "testdata/dirty", "-diff", "./..."},
			wantCode:   1,
			wantOut:    []string{"--- a/bad.go", "+++ b/bad.go", "-\treturn fmt.Errorf(\"x: %v\", err)", "+\treturn fmt.Errorf(\"x: %w\", err)"},
			wantOutLen: -1,
		},
		{
			name:       "diff on a clean tree exits 0 empty",
			args:       []string{"-C", "testdata/clean", "-diff", "./..."},
			wantCode:   0,
			wantOutLen: 0,
		},
		{
			name:       "fix and diff are mutually exclusive",
			args:       []string{"-fix", "-diff", "./..."},
			wantCode:   2,
			wantErr:    []string{"mutually exclusive"},
			wantOutLen: 0,
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
	if _, ok := diags[0]["suggested_fixes"]; !ok {
		t.Error("finding should carry its suggested fix in JSON output")
	}
}

// TestCLIFix applies the suggested fix to a scratch copy of the dirty
// fixture and verifies the second run comes back clean.
func TestCLIFix(t *testing.T) {
	work := t.TempDir()
	for _, f := range []string{"go.mod", "bad.go"} {
		b, err := os.ReadFile(filepath.Join("testdata/dirty", f))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(work, f), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	code, _, errOut := runVet(t, "-C", work, "-fix", "./...")
	if code != 0 {
		t.Fatalf("fix run exit = %d, want 0\nstderr:\n%s", code, errOut)
	}
	if !strings.Contains(errOut, "applied 1 fix(es) across 1 file(s)") {
		t.Errorf("stderr missing apply summary:\n%s", errOut)
	}
	fixed, err := os.ReadFile(filepath.Join(work, "bad.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(fixed), `fmt.Errorf("x: %w", err)`) {
		t.Errorf("fix not applied:\n%s", fixed)
	}
	if code, _, _ := runVet(t, "-C", work, "./..."); code != 0 {
		t.Errorf("tree still dirty after -fix (exit %d)", code)
	}
}
