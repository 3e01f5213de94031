package pattern

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"talon/internal/geom"
	"talon/internal/sector"
)

// The on-disk format is CSV: one header row "sector,az,el,gain" followed
// by one row per stored sample. Gains are written exactly (shortest
// round-trip form) and missing samples as "nan". Human-inspectable and
// matches the per-sample layout of the published talon-tools traces.

// WriteCSV writes the set in CSV form.
func (s *Set) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "sector,az,el,gain"); err != nil {
		return err
	}
	for _, id := range s.IDs() {
		p := s.patterns[id]
		for e, el := range p.grid.El() {
			for a, az := range p.grid.Az() {
				v := p.gain[e][a]
				var vs string
				if math.IsNaN(v) {
					vs = "nan"
				} else {
					vs = strconv.FormatFloat(v, 'g', -1, 64)
				}
				if _, err := fmt.Fprintf(bw, "%d,%s,%s,%s\n", uint8(id),
					strconv.FormatFloat(az, 'g', -1, 64),
					strconv.FormatFloat(el, 'g', -1, 64), vs); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// ReadCSV parses a set written by WriteCSV. All sectors must share one
// grid; the grid is inferred from the distinct az/el values of the first
// sector block.
func ReadCSV(r io.Reader) (*Set, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() {
		return nil, fmt.Errorf("pattern: empty CSV input")
	}
	if got := strings.TrimSpace(sc.Text()); got != "sector,az,el,gain" {
		return nil, fmt.Errorf("pattern: unexpected CSV header %q", got)
	}
	type sample struct {
		az, el, v float64
	}
	bySector := make(map[sector.ID][]sample)
	var order []sector.ID
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 4 {
			return nil, fmt.Errorf("pattern: CSV line %d: want 4 fields, got %d", line, len(parts))
		}
		idn, err := strconv.ParseUint(parts[0], 10, 8)
		if err != nil {
			return nil, fmt.Errorf("pattern: CSV line %d: sector: %w", line, err)
		}
		az, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, fmt.Errorf("pattern: CSV line %d: az: %w", line, err)
		}
		el, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			return nil, fmt.Errorf("pattern: CSV line %d: el: %w", line, err)
		}
		var v float64
		if parts[3] == "nan" {
			v = math.NaN()
		} else if v, err = strconv.ParseFloat(parts[3], 64); err != nil {
			return nil, fmt.Errorf("pattern: CSV line %d: gain: %w", line, err)
		}
		id := sector.ID(idn)
		if _, seen := bySector[id]; !seen {
			order = append(order, id)
		}
		bySector[id] = append(bySector[id], sample{az, el, v})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("pattern: CSV has no samples")
	}

	azSet := map[float64]bool{}
	elSet := map[float64]bool{}
	for _, sm := range bySector[order[0]] {
		azSet[sm.az] = true
		elSet[sm.el] = true
	}
	grid, err := geom.NewGrid(sortedKeys(azSet), sortedKeys(elSet))
	if err != nil {
		return nil, err
	}
	set := NewSet()
	for _, id := range order {
		p := New(grid)
		for _, sm := range bySector[id] {
			a := geom.Nearest(grid.Az(), sm.az)
			e := geom.Nearest(grid.El(), sm.el)
			p.gain[e][a] = sm.v
		}
		if err := set.Put(id, p); err != nil {
			return nil, err
		}
	}
	return set, nil
}

func sortedKeys(m map[float64]bool) []float64 {
	out := make([]float64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
