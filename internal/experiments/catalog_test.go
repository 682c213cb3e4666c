package experiments

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The only wall-clock text any study renders: planner durations in scale,
// and the matching time and its ratio in overhead.
var (
	wallRE     = regexp.MustCompile(` +(?:[0-9]+h)?(?:[0-9]+m)?[0-9.]+(?:ns|µs|ms|s)\b`)
	overheadRE = regexp.MustCompile(`matching [0-9.]+ ms vs ([0-9]+ s of data access) \([0-9.]+%`)
)

func maskWallClock(name, text string) string {
	switch name {
	case "scale":
		return wallRE.ReplaceAllString(text, " <wall>")
	case "overhead":
		return overheadRE.ReplaceAllString(text, "matching <wall> ms vs $1 (<ratio>%")
	}
	return text
}

// ciScale is the -scale the CI sweep steps (and the former per-study tests)
// run each study at.
func ciScale(name string) int {
	switch name {
	case "chaos":
		return 2
	case "jobmix":
		return 8
	case "racks":
		return 16
	}
	return 4
}

// TestCatalogueGolden pins every study's rendered text, wall-clock fields
// masked, at paper scale and at the CI scales. The files under testdata/
// were captured at commit b675d43, before the studies moved onto the shared
// harness; a study whose output is meant to change gets its file deleted
// and this test run once to write the new one.
func TestCatalogueGolden(t *testing.T) {
	for _, st := range Catalog() {
		for _, c := range []struct {
			dir string
			cfg Config
		}{
			{"seed42-scale1", Config{Seed: 42, Scale: 1}},
			{"seed7-ci", Config{Seed: 7, Scale: ciScale(st.Name)}},
		} {
			res, err := st.Run(c.cfg)
			if err != nil {
				t.Errorf("%s at %s: %v", st.Name, c.dir, err)
				continue
			}
			_, claims := res.(Claimer)
			_, headline := res.(Headliner)
			if st.Checked != (claims || headline) {
				t.Errorf("%s: Checked = %v, but its result states claims: %v, a headline: %v", st.Name, st.Checked, claims, headline)
			}
			got := maskWallClock(st.Name, res.Render())
			path := filepath.Join("testdata", c.dir, st.Name+".txt")
			want, err := os.ReadFile(path)
			if os.IsNotExist(err) {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Errorf("%s: no golden file; wrote %s — review it and re-run", st.Name, path)
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s at %s differs from %s\n--- got\n%s--- want\n%s", st.Name, c.dir, path, got, want)
			}
		}
	}
}

// TestCatalogueClaimsHold runs every checked study at the quick config and
// fails on any claim that does not hold — the thresholds opass verify
// prints.
func TestCatalogueClaimsHold(t *testing.T) {
	claims := 0
	for _, st := range Catalog() {
		if !st.Checked {
			continue
		}
		res, err := st.Run(quick())
		if err != nil {
			t.Errorf("%s: %v", st.Name, err)
			continue
		}
		c, ok := res.(Claimer)
		if !ok {
			continue
		}
		for _, claim := range c.Claims() {
			claims++
			if !claim.Holds {
				t.Errorf("%s: claim %s (%s) does not hold: %s", st.Name, claim.Name, claim.Statement, claim.Detail)
			}
		}
	}
	if claims != 10 {
		t.Errorf("catalogue states %d claims, want the 10 opass verify has always printed", claims)
	}
}

// TestCatalogueNames checks that names and aliases are unique and that every
// name opass bench ever accepted still resolves.
func TestCatalogueNames(t *testing.T) {
	seen := map[string]bool{}
	for _, st := range Catalog() {
		for _, name := range append([]string{st.Name}, st.Aliases...) {
			if seen[name] {
				t.Errorf("name %q appears twice in the catalogue", name)
			}
			seen[name] = true
		}
		if st.Title == "" || st.Run == nil {
			t.Errorf("study %q lacks a title or a run function", st.Name)
		}
	}
	for name, canonical := range map[string]string{
		"fig1": "fig1", "fig3": "fig3", "fig7": "fig7", "fig8": "fig7", "fig7c": "fig7c", "fig8c": "fig7c",
		"fig9": "fig9", "fig10": "fig9", "fig11": "fig11", "fig12": "fig12", "overhead": "overhead",
		"scale": "scale", "ablation-placement": "ablation-placement", "dynamic-masters": "dynamic-masters",
		"hetero": "hetero", "redistribution": "redistribution",
		"replication": "replication", "sensitivity": "sensitivity", "faults": "faults", "chaos": "chaos",
		"racks": "racks", "shared": "shared", "jobmix": "jobmix", "advisor": "advisor", "datasize": "datasize",
	} {
		if st, ok := Lookup(name); !ok || st.Name != canonical {
			t.Errorf("Lookup(%q) = %q, %v; want %q", name, st.Name, ok, canonical)
		}
	}
	if _, ok := Lookup("fig2"); ok {
		t.Error("Lookup resolved a study that does not exist")
	}
}

// TestCatalogueDocumented fails when a study is missing from the places that
// describe the catalogue in prose: EXPERIMENTS.md, DESIGN.md §4 and the
// README's opass bench command list.
func TestCatalogueDocumented(t *testing.T) {
	section := func(file, from, to string) string {
		blob, err := os.ReadFile(filepath.Join("..", "..", file))
		if err != nil {
			t.Fatal(err)
		}
		text := string(blob)
		start := strings.Index(text, from)
		if start < 0 {
			t.Fatalf("%s has no %q", file, from)
		}
		text = text[start:]
		if to != "" {
			if end := strings.Index(text[len(from):], to); end >= 0 {
				text = text[:len(from)+end]
			}
		}
		return text
	}
	docs := map[string]string{
		"EXPERIMENTS.md":                section("EXPERIMENTS.md", "#", ""),
		"DESIGN.md §4":                  section("DESIGN.md", "## 4.", "\n## 5."),
		"README.md opass bench studies": section("README.md", "### `opass bench` studies", "\n## "),
	}
	for _, st := range Catalog() {
		for where, text := range docs {
			if !strings.Contains(text, "`"+st.Name+"`") {
				t.Errorf("study `%s` is not mentioned in %s", st.Name, where)
			}
		}
	}
}
