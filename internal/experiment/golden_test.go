package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// sweepGoldenDigest pins the SHA-256 of the JSON report produced by a
// fixed small sweep. The digest is part of the repo's determinism
// contract: performance refactors of the kernel, the message plane or
// the protocol core must reproduce this byte stream exactly (same
// seeds => same numbers), or they changed observable behaviour. If a
// deliberate semantic change invalidates it, re-pin with the value
// printed by the failure and call the change out in the PR.
const sweepGoldenDigest = "04452c12a350d224116ae7b600926390d0a1ffe8b1beaccac424fd504dac5521"

// goldenReportJSON runs the canonical golden sweep with the given
// worker count and returns its marshalled report.
func goldenReportJSON(t *testing.T, workers int) []byte {
	t.Helper()
	rep, err := Sweep(smallGrid(), Options{Seeds: 2, BaseSeed: 7, Workers: workers})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return buf
}

func TestSweepJSONGoldenDigest(t *testing.T) {
	buf := goldenReportJSON(t, 1)
	sum := sha256.Sum256(buf)
	if got := hex.EncodeToString(sum[:]); got != sweepGoldenDigest {
		t.Fatalf("sweep JSON digest changed:\n got %s\nwant %s\n(the sweep output is no longer byte-identical to the pinned baseline)", got, sweepGoldenDigest)
	}
}

func TestSweepJSONGoldenAcrossWorkers(t *testing.T) {
	serial := goldenReportJSON(t, 1)
	parallel := goldenReportJSON(t, 8)
	if string(serial) != string(parallel) {
		t.Fatal("sweep JSON differs between 1 and 8 workers")
	}
}
