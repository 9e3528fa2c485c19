package caliper_test

// The profile codec is checked against encoding/json, the format's
// reference: the writer must produce json.MarshalIndent's bytes, and the
// reader must accept and return exactly what json.Unmarshal plus
// Validate would.

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"rajaperf/internal/caliper"
	"rajaperf/internal/campaign"
	"rajaperf/internal/kernels"
	"rajaperf/internal/machine"
	"rajaperf/internal/resilience"
	"rajaperf/internal/suite"
	"rajaperf/internal/telemetry"
	"rajaperf/internal/thicket"
)

type namedProfile struct {
	name string
	p    *caliper.Profile
}

// realProfiles builds, once per process, the profiles the repo writes:
// a model-only campaign over the four paper machines at the default
// size, a Host -execute run with an injected kernel failure (so its
// metadata carries an "errors" []string), and a telemetry interval
// profile.
var realProfiles = sync.OnceValues(func() ([]namedProfile, error) {
	var out []namedProfile
	var plan campaign.Plan
	for _, m := range machine.Paper() {
		plan.Machines = append(plan.Machines, m.Shorthand)
	}
	res, err := campaign.Run(context.Background(), plan, campaign.Options{Retain: true})
	if err != nil {
		return nil, err
	}
	if err := res.Err(); err != nil {
		return nil, err
	}
	for _, sr := range res.Specs {
		out = append(out, namedProfile{sr.Spec.ID(), sr.Profile})
	}

	inj, err := resilience.ParseFaults("kernel.panic:1")
	if err != nil {
		return nil, err
	}
	host, err := suite.Run(suite.Config{
		Machine:     machine.Host(),
		Variant:     kernels.RAJASeq,
		SizePerNode: 10_000,
		Reps:        1,
		Execute:     true,
		Kernels:     []string{"Stream_TRIAD", "Stream_DOT"},
		Faults:      inj,
	})
	if err != nil {
		return nil, err
	}
	out = append(out, namedProfile{"Host-execute-failed", host})

	reg := &telemetry.Registry{}
	reg.Counter("suite.kernels.run").Add(7)
	reg.Gauge("campaign.runs.in_flight").Add(2)
	reg.Histogram("campaign.spec.seconds").Observe((3 * time.Millisecond).Nanoseconds())
	tele := telemetry.SnapshotProfile(reg.Snapshot(), 1, 500*time.Millisecond,
		map[string]any{"campaign": "codec-test"})
	out = append(out, namedProfile{"telemetry", tele})
	return out, nil
})

func corpus(tb testing.TB) []namedProfile {
	tb.Helper()
	ps, err := realProfiles()
	if err != nil {
		tb.Fatal(err)
	}
	if len(ps) < 6 {
		tb.Fatalf("corpus holds %d profiles, want the 4 paper machines, Host and telemetry", len(ps))
	}
	return ps
}

func marshal(tb testing.TB, p *caliper.Profile) []byte {
	tb.Helper()
	data, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// referenceRead is ReadFile's contract as encoding/json states it.
func referenceRead(data []byte) (*caliper.Profile, error) {
	var p caliper.Profile
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, err
	}
	return &p, p.Validate()
}

func codecRead(data []byte) (*caliper.Profile, error) {
	p, err := caliper.DecodeProfile(data)
	if err != nil {
		return nil, err
	}
	return p, p.Validate()
}

// edgeCases are the corners of encoding/json's decoding the profile
// reader must reproduce, accepted or not.
var edgeCases = []string{
	// Field names match case-insensitively under simple Unicode folding
	// (U+017F matches s; U+0131, dotless i, matches nothing), and keys
	// may be escaped.
	`{"METADATA":{"a":1},"Records":[{"PATH":["k"],"Metrics":{"x":1}}]}`,
	`{"recordſ":[{"paTh":["k"],"metricſ":{"x":1}}]}`,
	`{"records":[{"path":["k"],"metrıcs":{"x":1}}]}`,
	`{"reco\u0072ds":[{"p\u0061th":["k"]}]}`,
	`{"recordsx":[{"path":["k"]}],"pathK":1}`,
	// Duplicate keys: objects merge, arrays decode over the earlier
	// elements in place, re-exposing them within capacity.
	`{"metadata":{"a":1},"metadata":{"b":2,"a":3}}`,
	`{"records":[{"path":["a"],"metrics":{"x":1}}],"records":[{"path":["b"]}]}`,
	`{"records":[{"path":["a"],"metrics":{"x":1}},{"path":["b"],"metrics":{"y":1}},{"path":["c"]}],` +
		`"records":[{"path":["d"]}],"records":[{"path":["e"]},{"metrics":{"z":2}}]}`,
	`{"records":[{"path":["a","b","c"],"path":["d"],"path":["e",null]}]}`,
	`{"records":[{"path":["a"],"metrics":{"x":1},"metrics":{"y":2,"x":3}}]}`,
	`{"records":[{"path":["a"]}],"records":[],"records":[{"metrics":{}}]}`,
	// null at each level: ignored for the profile, a record and a path
	// segment; zeroing for maps, slices, metadata values and metrics.
	`null`,
	` null `,
	`{"metadata":null,"records":null}`,
	`{"records":[null]}`,
	`{"records":[{"path":["k"]}],"records":[null]}`,
	`{"records":[{"path":null,"metrics":null}]}`,
	`{"records":[{"path":["k",null],"metrics":{"x":null}}]}`,
	`{"metadata":{"a":1},"metadata":null,"records":[{"path":["k"],"metrics":{"x":1},"metrics":null}]}`,
	`{"metadata":{"a":null,"b":[null],"c":{"d":null}}}`,
	// Unknown fields are skipped whatever they hold; their numbers are
	// never converted.
	`{"version":3,"extra":{"a":[1,2,{"b":null}],"c":true},"records":[{"path":["k"],"note":"x","metrics":{}}]}`,
	`{"unknown":1e999,"records":[{"path":["k"],"unknown":-1e999}]}`,
	// Invalid UTF-8 and unpaired surrogates decode to U+FFFD.
	"{\"metadata\":{\"k\xff\":\"v\xc3\x28\",\"e\":\"\xed\xa0\x80\"},\"records\":[{\"path\":[\"\xf0\x9f\"],\"metrics\":{\"m\xfe\":1}}]}",
	`{"metadata":{"s":"\ud800","t":"\udc00x","u":"\ud800\u0041","v":"\ud83d\ude00","w":"\udc00\ud800","x":"\uD83D\uDE00"}}`,
	`{"metadata":{"e":"\"\\\/\b\f\n\r\t\u00e9\u2028<>&"}}`,
	// Metadata numbers are float64; number grammar and range.
	`{"metadata":{"a":-0,"b":1.5e3,"c":1E-7,"d":0.1,"e":123456789012345678901234567890,"f":2,"g":-1e+2}}`,
	`{"records":[{"path":["k"],"metrics":{"x":1e309}}]}`,
	`{"metadata":{"x":-1e309}}`,
	`{"records":[{"path":["k"],"metrics":{"x":1e-400,"y":4.9e-324,"z":-0.0}}]}`,
	`{"records":[{"path":["k"],"metrics":{"a":-0,"b":999999999999999,"c":-999999999999999,` +
		`"d":9999999999999999,"e":9007199254740993,"f":00}}]}`,
	`{"metadata":{"a":01}}`,
	`{"metadata":{"a":1.}}`,
	`{"metadata":{"a":-}}`,
	`{"metadata":{"a":.5}}`,
	`{"metadata":{"a":1e}}`,
	`{"metadata":{"a":1e+}}`,
	`{"metadata":{"a":+1}}`,
	`{"metadata":{"a":-01}}`,
	`{"metadata":{"a":0x1}}`,
	`{"metadata":{"a":NaN}}`,
	// Literals.
	`{"metadata":{"a":true,"b":false}}`,
	`{"metadata":{"a":tru}}`,
	`{"metadata":{"a":nulls}}`,
	// A known field of the wrong type is an error.
	`[]`,
	`"profile"`,
	`1`,
	`true`,
	`{"metadata":[]}`,
	`{"metadata":"x"}`,
	`{"records":{}}`,
	`{"records":"x"}`,
	`{"records":[1]}`,
	`{"records":[[]]}`,
	`{"records":[{"path":"k"}]}`,
	`{"records":[{"path":[1]}]}`,
	`{"records":[{"path":[{}]}]}`,
	`{"records":[{"path":["k"],"metrics":{"x":"1"}}]}`,
	`{"records":[{"path":["k"],"metrics":{"x":true}}]}`,
	`{"records":[{"path":["k"],"metrics":{"x":[]}}]}`,
	`{"records":[{"path":["k"],"metrics":[]}]}`,
	// Syntax: trailing data, separators, strings, whitespace.
	``,
	` `,
	`{}`,
	"\ufeff{}",
	`{} {}`,
	`{}x`,
	"{}\n\t\r ",
	`{"metadata":{}},`,
	`{"metadata":{},}`,
	`{"metadata" {}}`,
	`{"metadata":{"a":1 "b":2}}`,
	`{"records":[{"path":["k"],}]}`,
	`{"records":[{"path":["k",]}]}`,
	`{metadata:{}}`,
	`{'metadata':{}}`,
	`{"metadata":{"e":"\x"}}`,
	`{"metadata":{"e":"\u12"}}`,
	`{"metadata":{"e":"\u12G4"}}`,
	"{\"metadata\":{\"e\":\"a\tb\"}}",
	"{\"metadata\":{\"e\":\"a\x7fb\"}}",
	`{"metadata":{"e":"unterminated}}`,
	// Validate's checks still apply.
	`{"records":[{"path":[]}]}`,
	`{"records":[{"path":["k"]},{"path":["k"]}]}`,
	`{"records":[{"path":["k"],"metrics":{"x":1.7e308}}]}`,
	`{"records":[{"path":["k"],"metrics":{"x":1e308}}]}`,
}

// smallProfile is a short valid profile whose every prefix the fuzzer
// starts from: truncation is how a crash tears a profile.
func smallProfile(tb testing.TB) []byte {
	c := caliper.NewRecorderWith(caliper.Config{})
	c.AddMetadata("machine", "SPR-DDR")
	c.AddMetadata("ranks", 112)
	c.AddMetadata("errors", []string{"Basic_PI_ATOMIC: boom"})
	c.Region("Stream", func() { c.Region("Stream_ADD", func() {}) })
	c.SetMetricAt([]string{"Stream", "Stream_ADD"}, "GB/s", 12.5)
	// Fixed region times: measured ones vary in length from run to run,
	// and with them the number (and so the names) of the fuzz seeds.
	c.SetMetricAt([]string{"Stream"}, "time", 5.179e-06)
	c.SetMetricAt([]string{"Stream", "Stream_ADD"}, "time", 3.408e-06)
	return marshal(tb, c.Profile())
}

// sameDecode checks that the codec accepts data exactly when encoding/json
// does and then decodes the same profile, which it returns (nil when
// both reject).
func sameDecode(t *testing.T, data []byte) *caliper.Profile {
	t.Helper()
	got, gerr := codecRead(data)
	want, werr := referenceRead(data)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("codec error %v, encoding/json error %v, for %.200q", gerr, werr, data)
	}
	if gerr != nil {
		return nil
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %#v, encoding/json decoded %#v, from %.200q", got, want, data)
	}
	return got
}

// TestReadProfileNestingLimit: encoding/json rejects more than 10000
// nested arrays and objects, in unknown fields and metadata alike. These
// inputs stay out of the fuzz corpus: re-encoding deep nesting costs time
// quadratic in its depth.
func TestReadProfileNestingLimit(t *testing.T) {
	deep := func(prefix string, n int, suffix string) []byte {
		return []byte(prefix + strings.Repeat("[", n) + strings.Repeat("]", n) + suffix)
	}
	for _, c := range []struct {
		data []byte
		ok   bool
	}{
		{deep(`{"x":`, 9999, `}`), true},
		{deep(`{"x":`, 10000, `}`), false},
		{deep(`{"metadata":{"x":`, 9998, `}}`), true},
		{deep(`{"metadata":{"x":`, 9999, `}}`), false},
		{[]byte(`{"metadata":{"x":` + strings.Repeat(`{"a":`, 9998) + `1` + strings.Repeat("}", 9998) + `}}`), true},
		{[]byte(`{"metadata":{"x":` + strings.Repeat(`{"a":`, 9999) + `1` + strings.Repeat("}", 9999) + `}}`), false},
	} {
		if got := sameDecode(t, c.data); (got != nil) != c.ok {
			t.Errorf("accepted = %v at %d bytes, want %v", got != nil, len(c.data), c.ok)
		}
	}
}

// FuzzReadProfile is seeded with whole real profiles of about 70 KB.
// Minimizing a mutated one takes minutes, so fuzz with a short
// -fuzzminimizetime (CI uses 1s) or a short run does nothing else.
func FuzzReadProfile(f *testing.F) {
	for _, np := range corpus(f) {
		f.Add(marshal(f, np.p))
	}
	for _, s := range edgeCases {
		f.Add([]byte(s))
	}
	small := smallProfile(f)
	for i := 0; i <= len(small); i++ {
		f.Add(small[:i])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got := sameDecode(t, data)
		if got == nil {
			return
		}
		out, err := caliper.AppendProfile(nil, got)
		if err != nil {
			t.Fatal(err)
		}
		if ref := marshal(t, got); !bytes.Equal(out, ref) {
			t.Fatalf("re-encoded %.300q, json.MarshalIndent wrote %.300q", out, ref)
		}
	})
}

// FuzzFromDirLenient writes each input as the one profile file of a
// directory. FromDirLenient, which ingests the walk's flat decoded form,
// and ReadFile followed by FromProfiles, which ingests a Profile's maps,
// must accept exactly what encoding/json and Profile.Validate accept, and
// then compose the same frame.
func FuzzFromDirLenient(f *testing.F) {
	for _, np := range corpus(f) {
		f.Add(marshal(f, np.p))
	}
	for _, s := range edgeCases {
		f.Add([]byte(s))
	}
	small := smallProfile(f)
	for i := 0; i <= len(small); i++ {
		f.Add(small[:i])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "p"+caliper.FileExt)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, werr := referenceRead(data)
		p, rerr := caliper.ReadFile(path)
		got, _, derr := thicket.FromDirLenient(dir)
		if (rerr == nil) != (werr == nil) || (derr == nil) != (werr == nil) {
			t.Fatalf("ReadFile error %v, FromDirLenient error %v, encoding/json error %v, for %.200q", rerr, derr, werr, data)
		}
		if werr != nil {
			return
		}
		want := thicket.FromProfiles([]*caliper.Profile{p})
		if got.NumRows() != want.NumRows() || got.NumProfiles() != want.NumProfiles() {
			t.Fatalf("FromDirLenient: %d rows of %d profiles, FromProfiles: %d of %d",
				got.NumRows(), got.NumProfiles(), want.NumRows(), want.NumProfiles())
		}
		if g, w := frameText(t, got), frameText(t, want); g != w {
			t.Fatalf("FromDirLenient composed\n%s\nFromProfiles composed\n%s", g, w)
		}
	})
}

// frameText renders a thicket's rows, with metric columns in name order,
// and its metadata table.
func frameText(t *testing.T, tk *thicket.Thicket) string {
	var b bytes.Buffer
	if err := tk.WriteMetricsCSV(&b); err != nil {
		t.Fatal(err)
	}
	if err := tk.WriteMetadataCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestDecodeInternsNames: every record of a decoded file shares one
// string per metric name and path segment.
func TestDecodeInternsNames(t *testing.T) {
	p, err := caliper.DecodeProfile(marshal(t, corpus(t)[0].p))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]*byte{}
	check := func(s string) {
		ptr := unsafe.StringData(s)
		if prev, ok := seen[s]; ok && prev != ptr {
			t.Fatalf("%q decoded into two separate strings", s)
		}
		seen[s] = ptr
	}
	for _, r := range p.Records {
		for _, seg := range r.Path {
			check(seg)
		}
		for m := range r.Metrics {
			check(m)
		}
	}
	if len(seen) < 20 {
		t.Fatalf("only %d distinct names checked", len(seen))
	}
}

// metadataTypes covers every metadata value type the repo records, the
// strings encoding/json escapes, and the floats at its formatting
// boundaries, plus values the codec hands to json.Marshal.
func metadataTypes() map[string]any {
	type tuning struct {
		Block int
		Tags  []string
		Empty []int
		Inner map[string]float64
	}
	one := 1
	return map[string]any{
		"html":           "<a href=\"x\">&amp;</a>",
		"separators":     "line\u2028para\u2029end",
		"control":        "\x00\x01\b\f\n\r\t\x1f\x7f end",
		"invalid":        "bad\xff\xfeutf8\xc3",
		"unicode":        "µs → 時間 😀",
		"escaped\tkey<>": "v",
		"":               "empty key",
		"int":            -42,
		"int.max":        math.MaxInt,
		"int64":          int64(math.MinInt64),
		"zero":           0.0,
		"negzero":        math.Copysign(0, -1),
		"tiny":           1e-7,
		"edge.small":     1e-6,
		"big":            1e21,
		"edge.big":       999999999999999999999.0,
		"denormal":       5e-324,
		"max":            math.MaxFloat64,
		"frac":           0.1 + 0.2,
		"true":           true,
		"false":          false,
		"nil":            nil,
		"errors":         []string{"Stream_TRIAD: <panic> & more", ""},
		"errors.nil":     []string(nil),
		"errors.none":    []string{},
		"any.list":       []any{1.5, "x", nil, []any{}, map[string]any{"k": []string{"v"}}},
		"any.map":        map[string]any{"b": 2.0, "a": map[string]any{}, "c": nil},
		"any.nilmap":     map[string]any(nil),
		"any.nillist":    []any(nil),
		// Types the codec hands to json.Marshal, re-indented in place.
		"duration": 250 * time.Millisecond,
		"float32":  float32(0.1),
		"uint":     uint(7),
		"pointer":  &one,
		"struct":   tuning{Block: 256, Tags: []string{"a<b"}, Inner: map[string]float64{"y": 1, "x": 1e-9}},
		"raw":      json.RawMessage(`{"b": [1, 2], "a": {}}`),
		"time":     time.Date(2024, 11, 17, 9, 30, 0, 0, time.UTC),
		"ints":     []int{3, 1, 2},
		"bytes":    []byte("blob"),
		"metadata": map[string]int{"z": 1, "a": 2},
	}
}

func writerCases(t *testing.T) []namedProfile {
	var cases []namedProfile
	for _, np := range corpus(t) {
		cases = append(cases, np)
		back, err := referenceRead(marshal(t, np.p))
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, namedProfile{np.name + "/decoded", back})
	}
	metrics := map[string]float64{
		"zero": 0, "negzero": math.Copysign(0, -1), "tiny": 1e-7, "big": 1e21,
		"neg": -3.25e-9, "int": 32000000, "huge": 1e308, "denormal": 5e-324,
		"GB/s <&>": 12.5, "\u2028": 1,
		"2^53-1": 1<<53 - 1, "2^53": 1 << 53, "2^53+2": 1<<53 + 2, "-2^53": -(1 << 53),
		"2^60": 1 << 60, "1e15": 1e15, "-7": -7, "1e20": 1e20, "half": -0.5,
	}
	cases = append(cases,
		namedProfile{"metadata-types", &caliper.Profile{
			Metadata: metadataTypes(),
			Records:  []caliper.Record{{Path: []string{"suite", "Stream_<TRIAD>", "\xff"}, Metrics: metrics}},
		}},
		namedProfile{"nil", &caliper.Profile{}},
		namedProfile{"empty", &caliper.Profile{Metadata: map[string]any{}, Records: []caliper.Record{}}},
		namedProfile{"empty-metrics", &caliper.Profile{Records: []caliper.Record{
			{Path: []string{"a"}, Metrics: map[string]float64{}},
			{Path: []string{"b"}},
		}}},
	)
	return cases
}

func TestWriteFileMatchesMarshalIndent(t *testing.T) {
	dir := t.TempDir()
	for _, c := range writerCases(t) {
		want := marshal(t, c.p)
		path := filepath.Join(dir, "p"+caliper.FileExt)
		if err := c.p.WriteFile(path); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			n := 0
			for n < len(got) && n < len(want) && got[n] == want[n] {
				n++
			}
			lo := max(n-80, 0)
			t.Fatalf("%s: WriteFile differs from json.MarshalIndent at byte %d:\n got  %q\n want %q",
				c.name, n, got[lo:min(n+40, len(got))], want[lo:min(n+40, len(want))])
		}

		// WriteFile → ReadFile returns what encoding/json reads back,
		// and writing that again is a fixed point.
		back, err := caliper.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		ref, err := referenceRead(want)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, ref) {
			t.Fatalf("%s: ReadFile after WriteFile = %#v, want %#v", c.name, back, ref)
		}
		path2 := filepath.Join(dir, "again"+caliper.FileExt)
		if err := back.WriteFile(path2); err != nil {
			t.Fatal(err)
		}
		again, err := caliper.ReadFile(path2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, back) {
			t.Fatalf("%s: second round trip changed the profile", c.name)
		}
	}
}

func TestWriteFileRejectsWhatMarshalIndentRejects(t *testing.T) {
	for _, v := range []any{math.NaN(), math.Inf(1), []any{math.Inf(-1)}, make(chan int)} {
		p := &caliper.Profile{Metadata: map[string]any{"bad": v}}
		if _, err := json.MarshalIndent(p, "", " "); err == nil {
			t.Fatalf("json.MarshalIndent accepted %v", v)
		}
		if _, err := caliper.AppendProfile(nil, p); err == nil {
			t.Errorf("codec encoded metadata value %v that encoding/json rejects", v)
		}
		if err := p.WriteFile(filepath.Join(t.TempDir(), "bad"+caliper.FileExt)); err == nil {
			t.Errorf("WriteFile accepted metadata value %v", v)
		}
	}
}

var (
	sinkProfile *caliper.Profile
	sinkBytes   []byte
)

// BenchmarkProfileCodec decodes (with Validate, as ReadFile does) and
// encodes the default-size profiles of a CPU and a GPU paper machine.
func BenchmarkProfileCodec(b *testing.B) {
	for _, name := range []string{"SPR-DDR", "P9-V100"} {
		m, err := machine.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		p, err := suite.Run(suite.Config{Machine: m, Variant: suite.DefaultVariant(m)})
		if err != nil {
			b.Fatal(err)
		}
		data := marshal(b, p)
		b.Run("decode/"+name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				q, err := caliper.DecodeProfile(data)
				if err == nil {
					err = q.Validate()
				}
				if err != nil {
					b.Fatal(err)
				}
				sinkProfile = q
			}
		})
		b.Run("encode/"+name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				out, err := caliper.AppendProfile(nil, p)
				if err != nil {
					b.Fatal(err)
				}
				sinkBytes = out
			}
		})
	}
}
