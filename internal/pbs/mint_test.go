package pbs_test

import (
	"fmt"
	"testing"

	"joshua/internal/pbs"
	"joshua/internal/shard"
)

// TestMintedIDsMatchSprintf submits 1,000 jobs, every tenth an array,
// to each shard of a 3-shard partition and checks every ID against the
// fmt.Sprintf rendering of a reference sequence walk: skip each number
// whose "seq.server" the shard's filter rejects, give a plain job
// "seq.server" and an array's sub-jobs "seq[idx].server" on
// consecutive sequence numbers.
func TestMintedIDsMatchSprintf(t *testing.T) {
	const shards = 3
	for index := 0; index < shards; index++ {
		filter := shard.IDFilter(index, shards)
		s := pbs.NewServer(pbs.Config{ServerName: "cluster", Nodes: []string{"c0"}, IDFilter: filter})
		var seq uint64
		for k := 0; k < 1000; k++ {
			seq++
			for !filter(pbs.JobID(fmt.Sprintf("%d.cluster", seq))) {
				seq++
			}
			var want []string
			req := pbs.SubmitRequest{Hold: true}
			if k%10 == 0 {
				start := k % 7
				req.Array = pbs.ArraySpec{Set: true, Start: start, End: start + k%4}
				for idx := start; idx <= req.Array.End; idx++ {
					want = append(want, fmt.Sprintf("%d[%d].cluster", seq, idx))
				}
				seq += uint64(len(want)) - 1
			} else {
				want = append(want, fmt.Sprintf("%d.cluster", seq))
			}
			jobs, err := s.SubmitArray(req)
			if err != nil {
				t.Fatal(err)
			}
			if len(jobs) != len(want) {
				t.Fatalf("shard %d submit %d: %d jobs, want %d", index, k, len(jobs), len(want))
			}
			for i, j := range jobs {
				if string(j.ID) != want[i] {
					t.Fatalf("shard %d submit %d: job %d has ID %q, want %q", index, k, i, j.ID, want[i])
				}
			}
		}
	}
}
