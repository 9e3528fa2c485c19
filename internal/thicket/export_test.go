package thicket

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"

	"rajaperf/internal/caliper"
	"rajaperf/internal/frame"
)

func exportFixture() *Thicket {
	c1 := caliper.NewRecorderWith(caliper.Config{})
	c1.AddMetadata("machine", "SPR-DDR")
	c1.AddMetadata("variant", "seq")
	c1.SetMetricAt([]string{"suite", "DAXPY"}, "time", 1.5)
	c1.SetMetricAt([]string{"suite", "DAXPY"}, "flops", 64)
	c1.SetMetricAt([]string{"suite", "MUL"}, "time", 0.5)
	c2 := caliper.NewRecorderWith(caliper.Config{})
	c2.AddMetadata("machine", "SPR-HBM")
	c2.SetMetricAt([]string{"suite", "DAXPY"}, "time", 0.75)
	return FromProfiles([]*caliper.Profile{c1.Profile(), c2.Profile()})
}

func TestWriteMetricsCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := exportFixture().WriteMetricsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 { // header + 3 rows
		t.Fatalf("csv rows = %d: %v", len(recs), recs)
	}
	header := strings.Join(recs[0], ",")
	if header != "profile,node,path,flops,time" {
		t.Fatalf("header = %q", header)
	}
	// Row 1: (DAXPY, profile 0) with both metrics.
	if recs[1][0] != "0" || recs[1][1] != "DAXPY" || recs[1][2] != "suite/DAXPY" ||
		recs[1][3] != "64" || recs[1][4] != "1.5" {
		t.Fatalf("row 1 = %v", recs[1])
	}
	// Row 2: MUL has no flops — the cell must be empty, not zero.
	if recs[2][1] != "MUL" || recs[2][3] != "" || recs[2][4] != "0.5" {
		t.Fatalf("row 2 = %v", recs[2])
	}
	if recs[3][0] != "1" || recs[3][4] != "0.75" {
		t.Fatalf("row 3 = %v", recs[3])
	}
}

func TestWriteMetadataCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := exportFixture().WriteMetadataCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("csv rows = %d", len(recs))
	}
	if got := strings.Join(recs[0], ","); got != "profile,machine,variant" {
		t.Fatalf("header = %q", got)
	}
	if recs[1][1] != "SPR-DDR" || recs[1][2] != "seq" {
		t.Fatalf("profile 0 = %v", recs[1])
	}
	// Profile 1 lacks the variant key: empty cell.
	if recs[2][1] != "SPR-HBM" || recs[2][2] != "" {
		t.Fatalf("profile 1 = %v", recs[2])
	}
}

func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := exportFixture().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Profiles []map[string]any `json:"profiles"`
		Metrics  []string         `json:"metrics"`
		Rows     []struct {
			Profile int                `json:"profile"`
			Node    string             `json:"node"`
			Path    []string           `json:"path"`
			Metrics map[string]float64 `json:"metrics"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Profiles) != 2 || len(doc.Rows) != 3 {
		t.Fatalf("profiles = %d, rows = %d", len(doc.Profiles), len(doc.Rows))
	}
	if doc.Profiles[1]["machine"] != "SPR-HBM" {
		t.Fatalf("profiles[1] = %v", doc.Profiles[1])
	}
	if strings.Join(doc.Metrics, ",") != "flops,time" {
		t.Fatalf("metrics = %v", doc.Metrics)
	}
	r := doc.Rows[0]
	if r.Node != "DAXPY" || r.Profile != 0 || r.Metrics["time"] != 1.5 || r.Metrics["flops"] != 64 {
		t.Fatalf("rows[0] = %+v", r)
	}
	if len(doc.Rows[1].Metrics) != 1 {
		t.Fatalf("MUL metrics = %v", doc.Rows[1].Metrics)
	}
	// A filtered view exports only its selection.
	var buf2 bytes.Buffer
	fv := exportFixture().Where(frame.NodeEq("MUL"))
	if err := fv.WriteMetricsCSV(&buf2); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf2).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1][1] != "MUL" {
		t.Fatalf("filtered export = %v", recs)
	}
}
