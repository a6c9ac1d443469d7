package experiments

import (
	"fmt"

	"symbiosched/internal/alloc"
	"symbiosched/internal/metrics"
)

// Table1Result reproduces Table 1: the user times of the canonical
// povray/gobmk/libquantum/hmmer mix (A/B/C/D) under the three possible
// process-to-core mappings of four processes on a dual core, plus the
// mapping the two-phase flow chooses.
type Table1Result struct {
	Names    []string        // A..D benchmark names
	Mappings []alloc.Mapping // the three candidates, canonical
	Labels   []string        // "AB|CD" style labels
	// Times[m][p] is process p's user time (cycles) under mapping m.
	Times       [][]uint64
	Chosen      alloc.Mapping
	ChosenLabel string
}

// Table renders the paper's Table 1 layout (benchmarks × mappings).
func (r Table1Result) Table() metrics.Table {
	t := metrics.Table{
		Title:   "Table 1: user time (Mcycles) under all process-to-core mappings; chosen = " + r.ChosenLabel,
		Headers: append([]string{"benchmark"}, r.Labels...),
	}
	for p, name := range r.Names {
		row := []interface{}{fmt.Sprintf("%s (%c)", name, 'A'+p)}
		for m := range r.Mappings {
			row = append(row, fmt.Sprintf("%.1f", float64(r.Times[m][p])/1e6))
		}
		t.AddRow(row...)
	}
	return t
}

// MappingLabel renders a 4-process mapping in the paper's "AB & CD" style.
func MappingLabel(m alloc.Mapping) string {
	groups := map[int][]byte{}
	order := []int{}
	for i, c := range m {
		if _, ok := groups[c]; !ok {
			order = append(order, c)
		}
		groups[c] = append(groups[c], byte('A'+i))
	}
	label := ""
	for k, c := range order {
		if k > 0 {
			label += " & "
		}
		label += string(groups[c])
	}
	return label
}

// Table1 runs the two-phase flow on the canonical mix, with Table 1's three
// mappings as the candidates.
func Table1(c Config) Table1Result {
	names := []string{"povray", "gobmk", "libquantum", "hmmer"}
	res := Table1Result{Names: names, Mappings: EnumerateMappings(4, 2)}
	out := c.RunMix(profilesByName(names), alloc.WeightedInterferenceGraph{}, res.Mappings, nil)
	for i, m := range res.Mappings {
		res.Labels = append(res.Labels, MappingLabel(m))
		res.Times = append(res.Times, out.Candidates[i].UserCycles)
	}
	res.Chosen = out.Chosen
	res.ChosenLabel = MappingLabel(res.Chosen)
	return res
}
