package experiment

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/epcgen2"
)

// cell parses a numeric table cell, tolerating a trailing '%'.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimSpace(s), "%")
	s = strings.TrimSuffix(s, "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return v
}

func runQuick(t *testing.T, id string) *Table {
	t.Helper()
	tab, err := Run(id, Runner{Seed: 1, Reps: 3, Quick: true})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if tab.ID != id {
		t.Fatalf("table id %q", tab.ID)
	}
	if len(tab.Rows) == 0 {
		t.Fatalf("%s: empty table", id)
	}
	return tab
}

func TestRegistryComplete(t *testing.T) {
	// Every artifact in DESIGN.md's index must be registered.
	want := []string{
		"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig12", "fig13", "fig14", "tab1", "fig17", "fig18", "fig19",
		"fig21", "tab2", "tab3", "fig23", "idorder",
		"ablation-dtw", "ablation-fit", "ablation-periods", "ablation-pivot",
	}
	ids := IDs()
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("experiment %q not registered", w)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestTableRenderAndCSV(t *testing.T) {
	tab := &Table{
		ID:     "t",
		Title:  "test",
		Header: []string{"a", "bb"},
	}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")
	tab.AddNote("hello %d", 7)
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== t: test ==", "333", "note: hello 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := tab.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "a,bb\n1,2\n") {
		t.Errorf("csv = %q", buf.String())
	}
}

func TestFig2(t *testing.T) {
	tab := runQuick(t, "fig2")
	if len(tab.Rows) < 30 {
		t.Errorf("fig2 rows = %d", len(tab.Rows))
	}
	// RSSI values plausible.
	for _, row := range tab.Rows {
		r1 := cell(t, row[1])
		if r1 > 0 || r1 < -100 {
			t.Fatalf("implausible RSSI %v", r1)
		}
	}
}

func TestFig3LagDoubles(t *testing.T) {
	tab := runQuick(t, "fig3")
	lag5 := cell(t, tab.Rows[0][1])
	lag10 := cell(t, tab.Rows[1][1])
	if lag10 <= lag5 {
		t.Errorf("lag did not grow: %v vs %v", lag5, lag10)
	}
}

func TestFig4GapGrows(t *testing.T) {
	tab := runQuick(t, "fig4")
	g5 := cell(t, tab.Rows[0][1])
	g10 := cell(t, tab.Rows[1][1])
	if g10 <= g5 {
		t.Errorf("phase gap did not grow: %v vs %v", g5, g10)
	}
}

func TestFig5MeasuredLagGrows(t *testing.T) {
	tab := runQuick(t, "fig5")
	var lags []float64
	for _, row := range tab.Rows {
		if row[1] == "v_bottom_lag_s" {
			lags = append(lags, cell(t, row[2]))
		}
	}
	if len(lags) != 2 || lags[1] <= lags[0] {
		t.Errorf("measured lags = %v", lags)
	}
}

func TestFig6Runs(t *testing.T) {
	runQuick(t, "fig6")
}

func TestFig7BottomError(t *testing.T) {
	tab := runQuick(t, "fig7")
	vals := map[string]float64{}
	for _, row := range tab.Rows {
		vals[row[0]] = cell(t, row[1])
	}
	if vals["bottom_error_s"] > 1.0 {
		t.Errorf("bottom error %v s too large", vals["bottom_error_s"])
	}
}

func TestFig8Compression(t *testing.T) {
	tab := runQuick(t, "fig8")
	// Larger windows compress more.
	prev := 0.0
	for _, row := range tab.Rows {
		c := cell(t, row[3])
		if c < prev {
			t.Errorf("compression not monotone: %v after %v", c, prev)
		}
		prev = c
		// No segment spans a wrap: range < π.
		if cell(t, row[4]) > 3.1416 {
			t.Errorf("segment range %v spans a wrap", cell(t, row[4]))
		}
	}
}

func TestFig9OrdersThreeTags(t *testing.T) {
	tab := runQuick(t, "fig9")
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Bottoms increase in tag order (tags laid out left to right).
	b1 := cell(t, tab.Rows[0][1])
	b3 := cell(t, tab.Rows[2][1])
	if b3 <= b1 {
		t.Errorf("bottoms not ordered: %v .. %v", b1, b3)
	}
}

func TestFig13AccuracyClimbsWithDistance(t *testing.T) {
	tab, err := Run("fig13", Runner{Seed: 5, Reps: 4, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	first := cell(t, tab.Rows[0][1])
	last := cell(t, tab.Rows[len(tab.Rows)-1][1])
	if last < first {
		t.Errorf("X accuracy fell with distance: %v → %v", first, last)
	}
	if last < 0.8 {
		t.Errorf("10 cm X accuracy = %v, want high", last)
	}
}

func TestIDOrderNearZeroTau(t *testing.T) {
	tab := runQuick(t, "idorder")
	for _, row := range tab.Rows {
		tau := cell(t, row[1])
		if tau > 0.5 || tau < -0.5 {
			t.Errorf("%s tau = %v, want near 0", row[0], tau)
		}
	}
}

func TestAblationPeriodsRuns(t *testing.T) {
	tab := runQuick(t, "ablation-periods")
	if len(tab.Rows) != 4 {
		t.Errorf("rows = %d", len(tab.Rows))
	}
}

func TestAblationFitBeatsOrMatchesRaw(t *testing.T) {
	tab, err := Run("ablation-fit", Runner{Seed: 2, Reps: 4, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	fit := cell(t, tab.Rows[0][1])
	raw := cell(t, tab.Rows[1][1])
	if fit < raw-0.15 {
		t.Errorf("fit %v much worse than raw %v", fit, raw)
	}
}

func TestPadOrder(t *testing.T) {
	want := []epcgen2.EPC{epcgen2.NewEPC(1), epcgen2.NewEPC(2), epcgen2.NewEPC(3)}
	got := padOrder(want[:1], want)
	if len(got) != 3 {
		t.Fatalf("padded len = %d", len(got))
	}
	// Foreign EPCs are dropped.
	withForeign := append([]epcgen2.EPC{epcgen2.NewEPC(99)}, want...)
	got = padOrder(withForeign, want)
	if len(got) != 3 {
		t.Fatalf("foreign not dropped: %v", got)
	}
}
