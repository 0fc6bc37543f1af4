package analysis

import (
	"bytes"
	"fmt"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// SuppressName is the pseudo-analyzer that reports directive misuse:
// unknown analyzer names, missing reasons, and stale directives that
// suppress nothing. It cannot itself be suppressed.
const SuppressName = "suppress"

// directive is one parsed //maprat:allow comment.
type directive struct {
	file string
	// line is where the comment sits; target is the line whose findings
	// it suppresses — the same line when the directive shares it with
	// code, the next line when the directive stands alone.
	line   int
	target int
	names  []string
	reason string
	used   bool
}

// allowRE matches the directive body after the mandatory "//maprat:allow"
// prefix. Analyzer names are lowercase identifiers; anything else (like
// the "<analyzer>" placeholder in documentation examples) is not a
// directive.
var allowRE = regexp.MustCompile(`^//maprat:allow\(([a-z][a-z0-9_, ]*)?\)(.*)$`)

// parseDirectives extracts //maprat:allow directives from the package's
// comments. Only real comments count — directive text quoted inside a
// string literal or an indented doc example never parses — and the
// directive must start the comment: "//maprat:allow(...)" with no space.
// A directive governs the line it shares with code, or the following
// line when the comment stands alone.
func parseDirectives(pkg *Package) []directive {
	var dirs []directive
	for i, file := range pkg.Files {
		src := pkg.Src[pkg.GoFiles[i]]
		lines := bytes.Split(src, []byte("\n"))
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				m := allowRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				reason := strings.TrimSpace(m[2])
				// Fixture files stack a // want expectation after the
				// directive; it is not part of the reason.
				if w := strings.Index(reason, "// want"); w >= 0 {
					reason = strings.TrimSpace(reason[:w])
				}
				var names []string
				for _, n := range strings.Split(m[1], ",") {
					if n = strings.TrimSpace(n); n != "" {
						names = append(names, n)
					}
				}
				d := directive{
					file:   pos.Filename,
					line:   pos.Line,
					target: pos.Line,
					names:  names,
					reason: reason,
				}
				if onOwnLine(lines, pos) {
					d.target = pos.Line + 1
				}
				dirs = append(dirs, d)
			}
		}
	}
	sort.Slice(dirs, func(i, j int) bool {
		if dirs[i].file != dirs[j].file {
			return dirs[i].file < dirs[j].file
		}
		return dirs[i].line < dirs[j].line
	})
	return dirs
}

// onOwnLine reports whether only whitespace precedes the comment on its
// source line.
func onOwnLine(lines [][]byte, pos token.Position) bool {
	if pos.Line-1 >= len(lines) || pos.Column < 1 {
		return false
	}
	line := lines[pos.Line-1]
	if pos.Column-1 > len(line) {
		return false
	}
	return len(bytes.TrimSpace(line[:pos.Column-1])) == 0
}

// applySuppressions drops diagnostics covered by a well-formed directive
// and appends one SuppressName finding per misused directive: unknown
// analyzer name, missing reason, or a stale directive whose target line
// has no finding to suppress. Staleness is judged only for directives
// whose analyzers all ran, so a run restricted with -analyzers does not
// condemn the other analyzers' directives. Malformed directives never
// suppress — an unjustified silence would otherwise be quieter than the
// finding it hides.
func applySuppressions(diags []Diagnostic, dirs []directive, known, ran map[string]bool) []Diagnostic {
	var out []Diagnostic

	type key struct {
		file string
		line int
		name string
	}
	// valid directives by (file, target line, analyzer)
	valid := map[key]*directive{}
	for i := range dirs {
		d := &dirs[i]
		if len(d.names) == 0 || d.reason == "" {
			continue
		}
		ok := true
		for _, n := range d.names {
			if !known[n] {
				ok = false
			}
		}
		if !ok {
			continue
		}
		for _, n := range d.names {
			valid[key{d.file, d.target, n}] = d
		}
	}

	for _, diag := range diags {
		if d, ok := valid[key{diag.File, diag.Line, diag.Analyzer}]; ok {
			d.used = true
			continue
		}
		out = append(out, diag)
	}

	for i := range dirs {
		d := &dirs[i]
		switch {
		case len(d.names) == 0:
			out = append(out, suppressFinding(d, "maprat:allow directive names no analyzer"))
		case d.reason == "":
			out = append(out, suppressFinding(d, fmt.Sprintf("maprat:allow(%s) has no reason; every suppression must say why the invariant does not apply", strings.Join(d.names, ","))))
		default:
			unknown := missingFrom(d.names, known)
			if len(unknown) > 0 {
				out = append(out, suppressFinding(d, fmt.Sprintf("maprat:allow names unknown analyzer %q (known: %s)", strings.Join(unknown, ","), knownList(known))))
			} else if !d.used && len(missingFrom(d.names, ran)) == 0 {
				out = append(out, suppressFinding(d, fmt.Sprintf("stale maprat:allow(%s): no %s finding on the governed line; delete the directive", strings.Join(d.names, ","), strings.Join(d.names, "/"))))
			}
		}
	}
	return out
}

func suppressFinding(d *directive, msg string) Diagnostic {
	return Diagnostic{
		Analyzer: SuppressName,
		File:     d.file,
		Line:     d.line,
		Col:      1,
		Message:  msg,
	}
}

// missingFrom returns the names not in set.
func missingFrom(names []string, set map[string]bool) []string {
	var out []string
	for _, n := range names {
		if !set[n] {
			out = append(out, n)
		}
	}
	return out
}

func knownList(known map[string]bool) string {
	names := make([]string, 0, len(known))
	for n := range known {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
