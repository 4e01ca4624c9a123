package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// paperTablesGolden pins the rendered tables of the seventeen paper-table
// experiments (E1–E12, A1–A3) at seed 42, one sha256 per experiment, in
// the order perfbench's paper-tables workload runs them. The rendering is
// perfbench's: a "## ID — claim" header, then each table followed by a
// newline, with no wall-clock footer. A change meant to keep behaviour (a
// simnet or scheduler speed-up, say) must keep every digest; when one moves,
// diff `go run ./cmd/experiments -run ID` against the parent commit.
var paperTablesGolden = []struct{ id, digest string }{
	{"E1", "97641608bf4248e2a14f4a0fbca4d1c46075221f8c65fc94bd5e336eda677afd"},
	{"E1c", "73970850250a9c437fce92b7e1c518cdf5515215c255db8e555a4e073d96135f"},
	{"E2", "7d45e22e2ddb11a994c631b2eccbd7be532e8044f8a65b029bfe54cab8349a6c"},
	{"E3a", "02b2b88cafeb7234d5b68d238906d2319117eb426e1737a247b558fa45340baa"},
	{"E3b", "7a8c4af2502fba599b4aa54e9ba8557401dc73907eea7c720780fef27d1b810d"},
	{"E4", "c31b0a985f3533b12c137b8526930ab25f6722139bcb33c1f56cacf4a19e29ca"},
	{"E5", "38569ca9db6434ed97af2246ea0e450c328bd90437939a61824bc126ec95d30e"},
	{"E6", "967af2efae66a60ce392aac46ea1503323a78ab253f7593b92eb7bdeb3a84cbd"},
	{"E7", "d0462177f50720d8eb6c4fa4740052650ea7c9026fd9793ae8ab8fa77b51a633"},
	{"E8", "be60cb28b93e52dcd4c2026311355677c3c9baf7bb672843478cf9fd67676331"},
	{"E9", "183da835fec0a55f28ff5df7e51998874fe530910c2dac219664953e3db6fe3a"},
	{"E10", "a94ab9c5114ba32c1b935ecf33bc070f6a2b2c5319aefc6197254dfa9f9a7bdd"},
	{"E11", "267170ad35cbd91430d270414e6d96eaa3c6c024dd700631e9d41d910ce7f1e4"},
	{"E12", "a33152143fd2a15e4ab3b62264940829e98d7a340e56d24e091103547ce1543a"},
	{"A1", "a32194342363fcdb35668cb4233e5771053d38bb6d373584bfe5e271c6110679"},
	{"A2", "61cd4a7b30f57323753b814263908566ff86c5a9415775517dc91303c04d58e6"},
	{"A3", "fa3650452342cdc094a733b2b51c3813f01d7b92a1d23a2397df054a3f3e86a4"},
}

// replayTablesGolden pins the two trace-replay experiments (E13, E14) at
// seed 42 in the same way. perfbench's paper-tables workload leaves them
// out, so they have their own list and paperTablesGolden keeps mirroring it.
var replayTablesGolden = []struct{ id, digest string }{
	{"E13", "883486865234a89cbecbcd4c8fa8a857af8735ae7a6b5a256b43347c6c1407d2"},
	{"E14", "3c01d15d5e7f1abe1f8e48813bf7659ba795b9c962dbc52040ea2aded493e143"},
}

// renderTables renders one experiment's tables at seed the way perfbench's
// paper-tables workload does.
func renderTables(e Experiment, seed int64) []byte {
	var out bytes.Buffer
	fmt.Fprintf(&out, "## %s — %s\n\n", e.ID, e.Claim)
	for _, t := range e.Run(seed) {
		fmt.Fprintln(&out, t.String())
	}
	return out.Bytes()
}

// TestPaperTablesGolden checks that every paper-table experiment still
// renders byte-identical tables at seed 42.
func TestPaperTablesGolden(t *testing.T) {
	checkGolden(t, paperTablesGolden)
}

// TestReplayTablesGolden checks the same for the trace-replay experiments.
func TestReplayTablesGolden(t *testing.T) {
	checkGolden(t, replayTablesGolden)
}

func checkGolden(t *testing.T, golden []struct{ id, digest string }) {
	t.Helper()
	if testing.Short() {
		t.Skip("experiments are long; skipped in -short")
	}
	for _, g := range golden {
		e, ok := ByID(g.id)
		if !ok {
			t.Errorf("%s: not in the registry", g.id)
			continue
		}
		sum := sha256.Sum256(renderTables(e, 42))
		if got := hex.EncodeToString(sum[:]); got != g.digest {
			t.Errorf("%s tables moved at seed 42: got sha256 %s, want %s", g.id, got, g.digest)
		}
	}
}
