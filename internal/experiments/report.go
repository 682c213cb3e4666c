package experiments

import (
	"fmt"
	"strings"
)

// MarkdownReport runs every checked study of the catalogue at the
// configured scale and emits a paper-vs-measured markdown document — the
// machine-generated counterpart of EXPERIMENTS.md, suitable for regression
// archives (`opass report`). A study's claims become one table under its
// title; the headlines of the studies beyond the paper are listed last.
func MarkdownReport(cfg Config) (string, error) {
	var b, extensions strings.Builder
	b.WriteString("# Opass reproduction report\n\n")
	divisor := max(1, cfg.Scale)
	fmt.Fprintf(&b, "Configuration: seed %d, scale divisor %d (paper cluster sizes / %d).\n\n",
		cfg.Seed, divisor, divisor)
	for _, st := range Catalog() {
		if !st.Checked {
			continue
		}
		res, err := st.Run(cfg)
		if err != nil {
			return "", fmt.Errorf("%s: %w", st.Name, err)
		}
		if c, ok := res.(Claimer); ok {
			var rows []ClaimRow
			for _, claim := range c.Claims() {
				rows = append(rows, claim.Rows...)
			}
			if len(rows) > 0 {
				fmt.Fprintf(&b, "## %s\n\n| quantity | paper | measured |\n|---|---|---|\n", st.Title)
				for _, row := range rows {
					fmt.Fprintf(&b, "| %s | %s | %s |\n", row.Quantity, row.Paper, row.Measured)
				}
				b.WriteString("\n")
			}
		}
		if h, ok := res.(Headliner); ok {
			fmt.Fprintf(&extensions, "- %s\n", h.Headline())
		}
	}
	b.WriteString("## Extensions beyond the paper\n\n")
	b.WriteString(extensions.String())
	return b.String(), nil
}
