package server

import "html/template"

var baseCSS = `
body { font-family: Helvetica, Arial, sans-serif; margin: 24px; color: #222; }
h1 { font-size: 22px; } h2 { font-size: 17px; margin-top: 28px; }
a { color: #1a53a0; }
form label { display: inline-block; margin: 6px 14px 6px 0; font-size: 14px; }
input[type=text] { width: 420px; padding: 5px; }
input[type=number] { width: 70px; padding: 4px; }
table { border-collapse: collapse; margin-top: 8px; }
th, td { border: 1px solid #ccc; padding: 5px 10px; font-size: 13px; text-align: left; }
th { background: #f2f2f2; }
.chip { display: inline-block; width: 12px; height: 12px; border: 1px solid #666; margin-right: 6px; }
.meta { color: #666; font-size: 12px; }
.bar { background: #4a7; height: 13px; display: inline-block; }
.err { color: #a22; }
`

// mustTmpl registers the shared helpers before parsing, so templates can
// format fractions as percentages via mulf.
func mustTmpl(name, body string) *template.Template {
	return template.Must(template.New(name).Funcs(template.FuncMap{
		"mulf": func(a, b float64) float64 { return a * b },
	}).Parse(body))
}

var indexTmpl = mustTmpl("index", `<!DOCTYPE html>
<html><head><title>MapRat</title><style>`+baseCSS+`</style></head>
<body>
<h1>MapRat — Meaningful Explanation, Interactive Exploration and Geo-Visualization of Collaborative Ratings</h1>
<p class="meta">{{.Ratings}} ratings · {{.Items}} movies · {{.Users}} reviewers · {{.FromYear}}–{{.ToYear}}</p>
<form action="/explain" method="get">
  <label>Query<br><input type="text" name="q" value="movie:&quot;Toy Story&quot;"></label><br>
  <label>Max groups <input type="number" name="k" value="3" min="1" max="12"></label>
  <label>Rating coverage <input type="number" name="coverage" value="0.20" min="0" max="1" step="0.05"></label>
  <label>From year <input type="number" name="from" placeholder="{{.FromYear}}"></label>
  <label>To year <input type="number" name="to" placeholder="{{.ToYear}}"></label><br>
  <label>Profile (optional, e.g. <code>gender=female,age=under 18</code>)<br>
    <input type="text" name="profile" value=""></label><br>
  <label><input type="checkbox" name="geo" value="off"> framework mode (groups without geo-condition)</label><br>
  <button type="submit">Explain Ratings</button>
</form>
<h2>Example queries</h2>
<ul>
  <li><a href="/explain?q=movie%3A%22Toy+Story%22">movie:"Toy Story"</a></li>
  <li><a href="/explain?q=movie%3A%22The+Twilight+Saga%3A+Eclipse%22&geo=off&coverage=0.10&k=2">the controversial title, framework mode</a></li>
  <li><a href="/explain?q=actor%3A%22Tom+Hanks%22">actor:"Tom Hanks"</a></li>
  <li><a href="/explain?q=director%3A%22Steven+Spielberg%22+AND+genre%3AThriller">thrillers directed by Steven Spielberg</a></li>
  <li><a href="/explain?q=title%3A%22lord+rings%22">The Lord of the Rings trilogy</a></li>
  <li><a href="/evolution?q=movie%3A%22Toy+Story%22">Toy Story over time</a></li>
  <li><a href="/browse">browse: overall rating behaviour by state</a></li>
</ul>
</body></html>`)

var explainTmpl = mustTmpl("explain", `<!DOCTYPE html>
<html><head><title>MapRat — {{.Query}}</title><style>`+baseCSS+`</style></head>
<body>
<p><a href="/">← new query</a> · <a href="/evolution?{{.URLQuery}}">over time</a></p>
<h1>{{.Query}}</h1>
<p class="meta">
  {{len .Items}} item(s): {{range $i, $t := .Items}}{{if $i}}, {{end}}{{$t}}{{end}}<br>
  {{.NumRatings}} ratings · overall μ = {{printf "%.2f" .Mean}} · σ = {{printf "%.2f" .Std}}
  · computed in {{.Elapsed}}{{if .FromCache}} (cached){{end}}
</p>
{{range .Tabs}}
<h2>{{if eq .Result.Task "SM"}}Similarity Mining — reviewer groups that agree{{else}}Diversity Mining — reviewer groups that disagree{{end}}</h2>
<p class="meta">objective = {{printf "%.4f" .Result.Objective}} · coverage = {{printf "%.0f%%" (mulf .Result.Coverage 100.0)}}
  (α enforced: {{printf "%.0f%%" (mulf .Result.RelaxedCoverage 100.0)}})</p>
{{.SVG}}
<table>
<tr><th>group</th><th>icons</th><th>μ</th><th>σ</th><th>ratings</th><th>share</th><th></th></tr>
{{range .Result.Groups}}
<tr>
  <td>{{.Phrase}}</td><td>{{.Icons}}</td>
  <td>{{printf "%.2f" .Mean}}</td><td>{{printf "%.2f" .Std}}</td>
  <td>{{.Count}}</td><td>{{printf "%.1f%%" (mulf .Share 100.0)}}</td>
  <td><a href="/group?q={{$.RawQuery}}&key={{.Key}}{{if $.Framework}}&geo=off{{end}}">explore</a></td>
</tr>
{{end}}
</table>
{{end}}
</body></html>`)

var groupTmpl = mustTmpl("group", `<!DOCTYPE html>
<html><head><title>MapRat — group</title><style>`+baseCSS+`</style></head>
<body>
<p><a href="/explain?{{.URLQuery}}">← back to results</a></p>
<h1>{{.Group.Phrase}}</h1>
<p class="meta">query {{.Query}} · μ = {{printf "%.2f" .Group.Mean}} · σ = {{printf "%.2f" .Group.Std}}
 · {{.Group.Count}} ratings · {{printf "%.1f%%" (mulf .Group.Share 100.0)}} of the query's ratings</p>

<h2>Rating distribution</h2>
<table>
{{range .Bars}}<tr><td>{{.Score}}★</td><td style="border:none"><span class="bar" style="width:{{.Width}}px"></span> {{.Count}}</td></tr>{{end}}
</table>

{{if .Cities}}
<h2>City drill-down</h2>
<table>
<tr><th>city</th><th>μ</th><th>σ</th><th>ratings</th></tr>
{{range .Cities}}<tr><td>{{.City}}</td><td>{{printf "%.2f" .Mean}}</td><td>{{printf "%.2f" .Std}}</td><td>{{.Count}}</td></tr>{{end}}
</table>
{{end}}

<h2>Rating evolution</h2>
<table>
<tr><th>period</th><th>μ</th><th>ratings</th></tr>
{{range .Timeline}}<tr><td>{{.Label}}</td><td>{{if .Count}}{{printf "%.2f" .Mean}}{{else}}—{{end}}</td><td>{{.Count}}</td></tr>{{end}}
</table>

{{if .Refinements}}
<h2>Drill deeper (most deviant refinements)</h2>
<table>
<tr><th>refinement</th><th>adds</th><th>μ</th><th>Δ vs group</th><th>ratings</th><th></th></tr>
{{range .Refinements}}
<tr><td>{{.Group.Phrase}}</td><td>{{.Added}}</td>
<td>{{printf "%.2f" .Group.Mean}}</td><td>{{printf "%+.2f" .Delta}}</td><td>{{.Group.Count}}</td>
<td><a href="/group?q={{$.RawQuery}}&key={{.Group.Key}}{{if $.Framework}}&geo=off{{end}}">explore</a></td></tr>
{{end}}
</table>
{{else}}
<h2>Drill deeper (most deviant refinements)</h2>
<p class="meta">drill-down unavailable: this group has no deeper refinements</p>
{{end}}

{{if .Related}}
<h2>Related groups (differ in one attribute)</h2>
<table>
<tr><th>group</th><th>μ</th><th>ratings</th><th></th></tr>
{{range .Related}}
<tr><td>{{.Phrase}}</td><td>{{printf "%.2f" .Mean}}</td><td>{{.Count}}</td>
<td><a href="/group?q={{$.RawQuery}}&key={{.Key}}{{if $.Framework}}&geo=off{{end}}">explore</a></td></tr>
{{end}}
</table>
{{end}}
</body></html>`)

var browseTmpl = mustTmpl("browse", `<!DOCTYPE html>
<html><head><title>MapRat — browse</title><style>`+baseCSS+`</style></head>
<body>
<p><a href="/">← new query</a></p>
<h1>Browse — overall rating behaviour by state</h1>
{{.SVG}}
<table>
<tr><th>state</th><th>μ</th><th>σ</th><th>ratings</th></tr>
{{range .States}}<tr><td>{{.State}}</td><td>{{printf "%.2f" .Mean}}</td><td>{{printf "%.2f" .Std}}</td><td>{{.Count}}</td></tr>{{end}}
</table>
</body></html>`)

var evolutionTmpl = mustTmpl("evolution", `<!DOCTYPE html>
<html><head><title>MapRat — evolution</title><style>`+baseCSS+`</style></head>
<body>
<p><a href="/">← new query</a></p>
<h1>{{.Query}} — best Similarity-Mining groups per year</h1>
<table>
<tr><th>year</th><th>groups</th></tr>
{{range .Rows}}
<tr><td>{{.Year}}</td><td>
{{if .Empty}}<span class="meta">no ratings / no feasible groups</span>{{else}}
{{range .Groups}}{{.Phrase}} (μ={{printf "%.2f" .Mean}}, n={{.Count}})<br>{{end}}
{{end}}
</td></tr>
{{end}}
</table>
</body></html>`)
