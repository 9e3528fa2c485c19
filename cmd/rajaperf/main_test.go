package main

import (
	"strings"
	"testing"
)

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
