package caliper

import "fmt"

// Handles on the codec for the external test package, which builds real
// profiles through the suite and campaign layers (they import caliper).
var AppendProfile = appendProfile

// DecodeProfile parses data as json.Unmarshal into a Profile would,
// without Validate, through a pooled Rows as the walk decodes files. It
// fails if a record of the Rows holds a metric name twice, which the
// Profile's map would hide from a comparison with encoding/json.
func DecodeProfile(data []byte) (*Profile, error) {
	r := getRows()
	defer putRows(r)
	if err := r.decode(data); err != nil {
		return nil, err
	}
	p := r.Profile()
	for i := range p.Records {
		if _, names, _ := r.Record(i); len(names) != len(p.Records[i].Metrics) {
			return nil, fmt.Errorf("record %d: %d cells for %d metric names", i, len(names), len(p.Records[i].Metrics))
		}
	}
	return p, nil
}
