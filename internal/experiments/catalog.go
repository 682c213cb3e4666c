package experiments

import "slices"

// Result is what every study returns: it renders itself as the text rows
// comparable to the paper's figure. A result may also implement Claimer,
// Headliner, and the optional interfaces `opass bench` looks for
// (Plot() string, Export(dir, name string) error, BenchKey() string).
type Result interface {
	Render() string
}

// Claim is one statement a study checks against the paper. opass verify
// prints Name, Statement and Detail as a PASS/FAIL row; opass report
// tabulates Rows; TestCatalogueClaimsHold fails when Holds is false.
type Claim struct {
	Name      string
	Statement string
	Holds     bool
	// Detail is the measured evidence behind Holds.
	Detail string
	// Rows are the claim's paper-vs-measured quantities.
	Rows []ClaimRow
}

// ClaimRow is one quantity the paper quotes next to what was measured.
type ClaimRow struct {
	Quantity, Paper, Measured string
}

// Claimer is a result that states claims.
type Claimer interface {
	Claims() []Claim
}

// Headliner is a result of a study beyond the paper that reports itself as
// one sentence in opass report's extensions list.
type Headliner interface {
	Headline() string
}

// Study is one entry of the catalogue.
type Study struct {
	// Name is what opass bench, BenchmarkStudy and the docs call the study;
	// Aliases are the other figure numbers the same run regenerates.
	Name    string
	Aliases []string
	Title   string
	// Checked marks the studies whose results state claims or a headline —
	// the set opass verify checks and opass report tabulates. It is derived
	// from the result type.
	Checked bool
	Run     func(Config) (Result, error)
}

// study adapts a typed study function to a catalogue entry.
func study[R Result](name, title string, run func(Config) (R, error), aliases ...string) Study {
	var zero R
	_, claims := any(zero).(Claimer)
	_, headline := any(zero).(Headliner)
	return Study{
		Name: name, Aliases: aliases, Title: title, Checked: claims || headline,
		Run: func(cfg Config) (Result, error) {
			r, err := run(cfg)
			if err != nil {
				return nil, err
			}
			return r, nil
		},
	}
}

// Catalog lists every study once, in the order opass bench, opass verify
// and opass report run them: the paper's figures and quoted numbers first,
// then the extensions.
func Catalog() []Study {
	return []Study{
		study("fig3", "§III analytical models", Fig3),
		study("fig1", "Figure 1 — motivating imbalance", Fig1),
		study("fig7", "Figures 7a/7b + 8a/8b — cluster-size sweep", SingleDataSweep, "fig8"),
		study("fig7c", "Figures 7c/8c — single-data trace", Fig7cTrace, "fig8c"),
		study("fig9", "Figures 9/10 — multi-data trace", Fig9Trace, "fig10"),
		study("fig11", "Figure 11 — dynamic master/worker", Fig11Trace),
		study("fig12", "Figure 12 — ParaView", Fig12),
		study("overhead", "§V-C1 — planner overhead", Overhead),
		study("scale", "§V-C2 — planner wall time vs problem size", PlannerScale),
		study("ablation-placement", "skewed placement with and without the balancer", AblationPlacement),
		study("dynamic-masters", "random vs delay-scheduling vs Opass masters", DynamicStrategies),
		study("hetero", "§IV-D heterogeneous cluster, static vs dynamic", HeteroStaticVsDynamic),
		study("redistribution", "MRAP-style replica migration cost and benefit", Redistribution),
		study("replication", "replication factor vs achievable locality", ReplicationSweep),
		study("sensitivity", "disk seek-penalty calibration sweep", SeekPenaltySensitivity),
		study("shared", "§V-C1 shared cluster: co-running jobs", SharedCluster),
		study("faults", "DataNode crashes mid-job with read failover", FaultTolerance),
		study("chaos", "seeded fault sweep: failover vs full vs delta replan", Chaos),
		study("racks", "oversubscribed multi-rack fabric, oblivious vs tiered matcher", RackTopology),
		study("jobmix", "staggered job mix: isolated plans vs the cluster scheduler", JobMix),
		study("advisor", "static 3-way vs access-driven adaptive replication", AdvisorStudy),
		study("datasize", "dataset-size sweep at fixed cluster size", DataSizeSweep),
	}
}

// Lookup resolves a study by name or alias.
func Lookup(name string) (Study, bool) {
	for _, st := range Catalog() {
		if st.Name == name || slices.Contains(st.Aliases, name) {
			return st, true
		}
	}
	return Study{}, false
}
