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
	return decodeProfile(r, data)
}

// Decoder decodes files one after another into one Rows, which keeps its
// interned strings and its metric name guesses from file to file, as
// each decoder of a walk does.
type Decoder struct{ r Rows }

// Decode is DecodeProfile through d's Rows.
func (d *Decoder) Decode(data []byte) (*Profile, error) { return decodeProfile(&d.r, data) }

func decodeProfile(r *Rows, data []byte) (*Profile, error) {
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

// ParseNumber converts lit as the decoder converts a metric value. It
// fails unless lit is one whole JSON number in float64 range.
func ParseNumber(lit []byte) (float64, error) {
	d := decoder{data: lit}
	f, err := d.number()
	if err == nil && d.pos < len(lit) {
		err = d.syntax("after number")
	}
	return f, err
}
