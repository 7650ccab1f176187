package readsession

import (
	"context"

	"vortex/internal/client"
	"vortex/internal/meta"
	"vortex/internal/query"
)

// ServeFunc returns the serve path of one assignment of plan, filtered
// by where, without its transport: the leaf scan and filter, each
// chunk's frame encode as handleReadRows runs them, and each frame's
// decode as Shard.Next runs it. The function returns the rows served.
func (s *Server) ServeFunc(table meta.TableID, plan *client.ScanPlan, where string) (func(context.Context, client.Assignment) (int, error), error) {
	expr, err := parseWhere(table, where, plan.Schema)
	if err != nil {
		return nil, err
	}
	sess := &session{table: table, plan: plan, pred: query.CompileVecPredicate(expr)}
	return func(ctx context.Context, a client.Assignment) (int, error) {
		sv, err := s.scanServed(ctx, sess, a)
		if err != nil {
			return 0, err
		}
		rows := 0
		for lo, n := 0, sv.count(); lo < n; lo += s.batchRows {
			b, err := decodeBatchFrame(sv.encode(lo, min(lo+s.batchRows, n)), plan.Schema)
			if err != nil {
				return 0, err
			}
			rows += b.NumRows()
		}
		return rows, nil
	}, nil
}
