package experiments

import (
	"fmt"
	"maps"
	"slices"

	"abenet/internal/harness"
	"abenet/internal/runner"
	"abenet/internal/stats"
)

// claim is one quantitative statement of the paper and the parts — one
// table each — that test it.
type claim struct {
	id, name, text string
	parts          []part
}

// part is one table of a claim. Logic that is not a sweep lives in run; any
// other part is data: the sweeps (blocks), how a position renders (cols,
// footer) and how the measurements are judged.
type part struct {
	run func(Options) (*harness.Table, Findings, bool, error)

	title  string
	reps   int // repetitions per position of a full run (Options.reps scales it)
	blocks []block
	cols   []col
	footer func(*sweeps) []string
	judge  func(*sweeps) (Findings, bool)
}

// block is a run of table rows, one per sweep position, drawn from arms
// that share those positions.
type block struct {
	label string
	arms  []arm
}

// arm is one harness sweep. Per-run seeds derive from (name, position
// index, repetition), so the name and the positions are part of the claim:
// renaming an arm or reordering xs changes every number it measures.
type arm struct {
	name  string
	xs    []float64
	build harness.EnvBuildFunc
	check func(runner.Report) error
}

// col renders one cell of a row.
type col struct {
	header string
	cell   func(row) string
}

// sweeps is what a part measured: points[block][arm][position].
type sweeps struct {
	id     string // the claim's, for errors
	blocks []block
	reps   int
	points [][][]harness.Point
	err    error // the first metric no position reported, or fit that failed
}

// sample is an arm's aggregate of one metric at one position. A metric
// absent there reads as zero (fault_* and byz_* keys exist only where a plan
// was injected); one absent at every position of the arm is a misspelling.
func (s *sweeps) sample(b, a, i int, metric string) *stats.Sample {
	points := s.points[b][a]
	if sample := points[i].Samples[metric]; sample != nil {
		return sample
	}
	reported := func(p harness.Point) bool { return p.Samples[metric] != nil }
	if s.err == nil && !slices.ContainsFunc(points, reported) {
		s.err = fmt.Errorf("experiments: %s: no run of arm %q reported a metric %q", s.id, s.blocks[b].arms[a].name, metric)
	}
	return &stats.Sample{}
}

func (s *sweeps) mean(b, a, i int, metric string) float64 { return s.sample(b, a, i, metric).Mean() }

// last is the index of the final position of the first block.
func (s *sweeps) last() int { return len(s.points[0][0]) - 1 }

// fit is the growth exponent of a metric over an arm of the first block.
func (s *sweeps) fit(a int, metric string) stats.LinearFit {
	s.sample(0, a, 0, metric)
	fit, err := harness.GrowthExponent(s.points[0][a], metric)
	if err != nil && s.err == nil {
		s.err = fmt.Errorf("experiments: %s: arm %q: %w", s.id, s.blocks[0].arms[a].name, err)
	}
	return fit
}

// row is the table row for position i of block b.
type row struct {
	s    *sweeps
	b, i int
}

func (r row) x() float64                          { return r.s.blocks[r.b].arms[0].xs[r.i] }
func (r row) mean(arm int, metric string) float64 { return r.s.mean(r.b, arm, r.i, metric) }

// The column shapes the claim table is built from.

func colX(header string) col {
	return col{header, func(r row) string { return fmt.Sprintf("%g", r.x()) }}
}

func colLabel(header string) col {
	return col{header, func(r row) string { return r.s.blocks[r.b].label }}
}

func colMean(header string, arm int, metric, format string) col {
	return col{header, func(r row) string { return fmt.Sprintf(format, r.mean(arm, metric)) }}
}

func colPercent(header string, arm int, metric string) col {
	return col{header, func(r row) string { return fmt.Sprintf("%.0f%%", 100*r.mean(arm, metric)) }}
}

func colMeanCI(header string, arm int, metric string) col {
	return col{header, func(r row) string {
		sample := r.s.sample(r.b, arm, r.i, metric)
		return fmt.Sprintf("%.1f ± %.1f", sample.Mean(), sample.CI95())
	}}
}

func colPerX(header string, arm int, metric string) col {
	return col{header, func(r row) string { return fmt.Sprintf("%.2f", r.mean(arm, metric)/r.x()) }}
}

// colRatio is the metric's mean in arm num over its mean in arm den.
func colRatio(header string, num, den int, metric string) col {
	return col{header, func(r row) string { return fmt.Sprintf("%.1fx", r.mean(num, metric)/r.mean(den, metric)) }}
}

// colAll reads reps/reps: an arm's check fails the sweep at the first run
// that does not hold.
func colAll(header string) col {
	return col{header, func(r row) string { return fmt.Sprintf("%d/%d", r.s.reps, r.s.reps) }}
}

// fitFooter is a footer row of one metric's growth exponent, a cell per arm.
func fitFooter(label, metric, format string, arms ...int) func(*sweeps) []string {
	return func(s *sweeps) []string {
		cells := []string{label}
		for _, a := range arms {
			cells = append(cells, fmt.Sprintf(format, s.fit(a, metric).Slope))
		}
		return cells
	}
}

// evaluate runs the claim's parts in order. Findings are the union over
// parts and Pass their conjunction; a part that fails without findings
// stopped at its first failure, and ends the experiment with its table.
func (c claim) evaluate(opt Options) (Result, error) {
	res := Result{ID: c.id, Claim: c.text, Findings: Findings{}, Pass: true}
	for _, p := range c.parts {
		table, findings, pass, err := p.measure(c.id, opt)
		if err != nil {
			return res, err
		}
		res.Tables = append(res.Tables, table)
		maps.Copy(res.Findings, findings)
		res.Pass = res.Pass && pass
		if !pass && findings == nil {
			break
		}
	}
	return res, nil
}

// measure is the part's table, findings and verdict. For a data part this
// is the one place a harness.Sweep is built and a table is filled: blocks
// outer, positions inner, then the footer.
func (p part) measure(id string, opt Options) (*harness.Table, Findings, bool, error) {
	if p.run != nil {
		return p.run(opt)
	}
	s := &sweeps{id: id, blocks: p.blocks, reps: opt.reps(p.reps), points: make([][][]harness.Point, len(p.blocks))}
	for b, blk := range p.blocks {
		for _, a := range blk.arms {
			sweep := harness.Sweep{Name: a.name, Repetitions: s.reps, Workers: opt.Workers, Seed: opt.Seed}
			points, err := sweep.Run(a.xs, a.build, a.check)
			if err != nil {
				return nil, nil, false, err
			}
			s.points[b] = append(s.points[b], points)
		}
	}

	headers := make([]string, len(p.cols))
	for i, c := range p.cols {
		headers[i] = c.header
	}
	table := harness.NewTable(p.title, headers...)
	cells := make([]string, len(p.cols))
	for b := range p.blocks {
		for i := range s.points[b][0] {
			for j, c := range p.cols {
				cells[j] = c.cell(row{s, b, i})
			}
			table.AddRow(cells...)
		}
	}
	if p.footer != nil {
		table.AddRow(p.footer(s)...)
	}
	findings, pass := p.judge(s)
	return table, findings, pass, s.err
}
