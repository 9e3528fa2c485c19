package main

import (
	"flag"
	"strings"
	"testing"
)

func TestResolveMetricsAddr(t *testing.T) {
	t.Run("metrics-addr passes through", func(t *testing.T) {
		got, err := resolveMetricsAddr("localhost:6060", "")
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		if got != "localhost:6060" {
			t.Fatalf("got %q, want -metrics-addr value", got)
		}
	})
	t.Run("pprof-http is a removal error", func(t *testing.T) {
		_, err := resolveMetricsAddr("", "localhost:7070")
		if err == nil {
			t.Fatal("removed -pprof-http must error")
		}
		if !strings.Contains(err.Error(), "removed") || !strings.Contains(err.Error(), "-metrics-addr") {
			t.Fatalf("error must name the removal and the replacement, got %q", err)
		}
	})
	t.Run("pprof-http errors even alongside metrics-addr", func(t *testing.T) {
		if _, err := resolveMetricsAddr("localhost:6060", "localhost:7070"); err == nil {
			t.Fatal("removed flag must error even when -metrics-addr is set")
		}
	})
	t.Run("both empty", func(t *testing.T) {
		got, err := resolveMetricsAddr("", "")
		if err != nil || got != "" {
			t.Fatalf("got %q, %v; want empty, nil", got, err)
		}
	})
}

// TestParseDispatchFlag: -dispatch was removed, so any value of it,
// the old "mono" and "closure" included, is a startup error (exit 2)
// that names the removal; leaving the flag out is fine.
func TestParseDispatchFlag(t *testing.T) {
	for _, args := range [][]string{
		{"-dispatch", "mono"},
		{"-dispatch", "closure"},
		{"-dispatch="},
		{"-dispatch", "bogus"},
		{"-kernels", "Stream_TRIAD", "-dispatch", "mono"},
	} {
		fs := flag.NewFlagSet("rajaperf", flag.ContinueOnError)
		fs.String("dispatch", "", "")
		fs.String("kernels", "", "")
		if err := fs.Parse(args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		err := rejectDispatch(fs)
		if err == nil || !strings.Contains(err.Error(), "removed") {
			t.Errorf("%v: got %v, want an error naming the removal", args, err)
		}
	}
	fs := flag.NewFlagSet("rajaperf", flag.ContinueOnError)
	fs.String("dispatch", "", "")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if err := rejectDispatch(fs); err != nil {
		t.Errorf("no -dispatch: got %v, want nil", err)
	}
}

func TestFabricRequiresExplicitOutdir(t *testing.T) {
	// -outdir defaults to ".", so the guard must key on whether the flag
	// was given, not on the value: a fabric campaign against the default
	// would scatter shard WALs and profiles over the working directory.
	code, err := runCampaign(campaignArgs{
		machines: "SPR-DDR", kernels: "Stream_TRIAD",
		outdir: ".", outdirSet: false, fabric: 2,
	})
	if code != 2 || err == nil {
		t.Fatalf("fabric without explicit -outdir: code %d, err %v; want 2 and an error", code, err)
	}
	if !strings.Contains(err.Error(), "-outdir") {
		t.Fatalf("error must name -outdir, got %q", err)
	}
}
