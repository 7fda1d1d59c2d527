package rsm

import (
	"fmt"

	"joshua/internal/codec"
)

// LogReqIDs returns the request ID of every record r's log holds, in
// log order: the total order the replica applied, for tests to check
// its apply order against.
func LogReqIDs(r *Replica) ([]string, error) {
	recs, ok := r.log.ReadSince(0)
	if !ok {
		return nil, fmt.Errorf("rsm: log does not hold its whole history")
	}
	ids := make([]string, 0, len(recs))
	for _, rec := range recs {
		d := codec.NewDecoder(rec.Data)
		ids = append(ids, d.String())
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("rsm: log record %d: %w", rec.Index, err)
		}
	}
	return ids, nil
}
