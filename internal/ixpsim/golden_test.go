package ixpsim

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// goldenACL are the sha256 digests of every round's ACL text on a 30-minute
// run with the drop stage on and a round after every third minute, and
// goldenCheckpoint the digest of the checkpoint after the last round. They
// were recorded before Step 1's discretisation moved to tagging.Class and pin
// every later rewrite of the round (rule mining, rule tagging, WoE counting)
// to the bytes the from-scratch round produced.
var (
	goldenACL = [...]string{
		"1c144e65139f892b18657aeb0d7574ffc12ca13e40d802758c76151d9ac3e936",
		"e5aaaf3479b0ea199ba0a766d68f78ee606d0be352abd5bd01aba80b1af7f976",
		"9f129fce90d23c2cdfaa7788dc6458a036c3b8ffc32aec64ca12aa3484a44e7f",
		"e037c6c0d1a4adb8edf1248147af5afd33ad2e18a10821fb0e48333a4038b4f9",
		"f915a709d5761fa67bbfdc720a3c54368af03748f7879d14d0fe2d6d115f1363",
		"e569eeadbe99db106b8a890a720ec847768bdf9a533ed4e9b71d57f87e04986e",
		"166a81c0a41981917ec7fb8efdee9b741240f8f62109e25abeb44040218edff6",
		"0a515159374a535e337b1e3f6eb1be1eba6774a8c606fbd1c4be879da0cb6d4e",
		"486954c024e7734a38c81eb93cec4840597807b0dccb75f1cc4c82f5f42184b3",
		"089dfb2ea4066f2c5455a14624d76f166f31034f982fb739fc68a5b58aa5c79a",
	}
	goldenCheckpoint = "90145689cc325aa32adeb12f35430cb4d347149667a04d7a9d31cf1a8f37047a"
)

func TestRoundGoldenDigests(t *testing.T) {
	const minutes = 30
	traffic := cpTraffic(lcProfile(), minutes)
	r := newCPRun(t, true)
	rounds := r.drive(t, traffic, 0, minutes)
	if len(rounds) != len(goldenACL) {
		t.Fatalf("%d rounds, want %d", len(rounds), len(goldenACL))
	}
	for i, round := range rounds {
		sum := sha256.Sum256([]byte(round.ACLText))
		if got := hex.EncodeToString(sum[:]); got != goldenACL[i] {
			t.Errorf("round %d: ACL sha256 %s, want %s (%d bytes)", i, got, goldenACL[i], len(round.ACLText))
		}
	}
	sum := sha256.Sum256(r.save(t))
	if got := hex.EncodeToString(sum[:]); got != goldenCheckpoint {
		t.Errorf("final checkpoint sha256 %s, want %s", got, goldenCheckpoint)
	}
}
