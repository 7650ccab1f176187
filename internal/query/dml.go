package query

import (
	"context"
	"fmt"

	"vortex/internal/client"
	"vortex/internal/dml"
	"vortex/internal/meta"
	"vortex/internal/schema"
	"vortex/internal/sql"
	"vortex/internal/wire"
)

// execDelete implements DELETE (§7.3): determine candidate rows, build
// per-fragment deletion masks and streamlet-tail masks, and persist them
// atomically at commit time.
func (e *Engine) execDelete(ctx context.Context, st *sql.DeleteStmt) (*Result, error) {
	return e.execMutation(ctx, meta.TableID(st.Table), st.Where, nil)
}

// execUpdate implements UPDATE as "a combination of deletion of the old
// rows and an insertion of the updated rows" (§7.3).
func (e *Engine) execUpdate(ctx context.Context, st *sql.UpdateStmt) (*Result, error) {
	return e.execMutation(ctx, meta.TableID(st.Table), st.Where, st.Set)
}

func (e *Engine) execMutation(ctx context.Context, table meta.TableID, where sql.Expr, set []sql.Assignment) (*Result, error) {
	sc, err := e.c.GetSchema(ctx, table)
	if err != nil {
		return nil, err
	}
	stmt := &sql.DeleteStmt{Table: string(table), Where: where}
	if err := sql.Resolve(stmt, sc); err != nil {
		return nil, err
	}
	for i := range set {
		if err := sql.Resolve(&sql.UpdateStmt{Table: string(table), Set: set[i : i+1], Where: where}, sc); err != nil {
			return nil, err
		}
	}

	// Announce the running statement: the storage optimizer yields while
	// any DML window is open (§7.3).
	addr, err := e.router.SMSFor(table)
	if err != nil {
		return nil, err
	}
	beginResp, err := e.net.Unary(ctx, addr, wire.MethodBeginDML, &wire.BeginDMLRequest{Table: table})
	if err != nil {
		return nil, err
	}
	token := beginResp.(*wire.BeginDMLResponse).Token
	defer func() {
		_, _ = e.net.Unary(ctx, addr, wire.MethodEndDML, &wire.EndDMLRequest{Table: table, Token: token})
	}()

	res := &Result{Columns: []string{"rows_affected"}}
	batches, err := e.scanTableBatches(ctx, table, 0, nil, nil, &res.Stats)
	if err != nil {
		return nil, err
	}
	var rows []client.PosRow
	for _, b := range batches {
		rows = append(rows, b.PosRows()...)
	}
	// DML over replacing change types would need per-key reasoning the
	// engine does not implement; BigQuery similarly restricts DML on
	// CDC-enabled tables.
	for _, pr := range rows {
		if pr.Stamped.Row.Change != schema.ChangeInsert {
			return nil, fmt.Errorf("query: DML on tables with UPSERT/DELETE change capture is unsupported")
		}
	}

	fragMasks := map[meta.FragmentID]*dml.Mask{}
	tailMasks := map[meta.StreamletID]*dml.Mask{}
	// fragRows tracks all scanned rows per fragment for reinsertion.
	fragRows := map[meta.FragmentID][]client.PosRow{}
	var matched []client.PosRow
	var affected int64

	for _, pr := range rows {
		match := true
		if where != nil {
			v, err := sql.Eval(where, pr.Stamped.Row)
			if err != nil {
				return nil, err
			}
			match = sql.Truthy(v)
		}
		if !pr.Live {
			fragRows[pr.FragID] = append(fragRows[pr.FragID], pr)
		}
		if !match {
			continue
		}
		affected++
		matched = append(matched, pr)
		if pr.Live {
			// The SMS may not know this row's fragment yet: mark the
			// streamlet tail deleted in stream-offset coordinates (§7.3).
			m := tailMasks[pr.Streamlet]
			if m == nil {
				m = &dml.Mask{}
				tailMasks[pr.Streamlet] = m
			}
			m.Add(pr.StreamOffset, pr.StreamOffset+1)
		} else {
			m := fragMasks[pr.FragID]
			if m == nil {
				m = &dml.Mask{}
				fragMasks[pr.FragID] = m
			}
			m.Add(pr.FragLocal, pr.FragLocal+1)
		}
	}

	// Reinserted rows (§7.3): updated copies of matched rows, plus rows
	// sacrificed by mask coalescing when a fragment's mask fragments too
	// finely ("sometimes rows unaffected by the DML statement may also
	// be marked deleted").
	var reinsert []schema.Row
	for _, pr := range matched {
		if set == nil {
			continue
		}
		updated := pr.Stamped.Row.Clone()
		for _, as := range set {
			v, err := sql.Eval(as.Value, pr.Stamped.Row)
			if err != nil {
				return nil, err
			}
			for len(updated.Values) <= as.Column.Index {
				updated.Values = append(updated.Values, schema.Null())
			}
			updated.Values[as.Column.Index] = v
		}
		if err := sc.ValidateRow(updated); err != nil {
			return nil, fmt.Errorf("query: UPDATE produces invalid row: %w", err)
		}
		reinsert = append(reinsert, updated)
	}
	for fid, m := range fragMasks {
		if len(m.Ranges) <= e.cfg.MaxMaskRanges {
			continue
		}
		span := dml.Range{Start: m.Ranges[0].Start, End: m.Ranges[len(m.Ranges)-1].End}
		coalesced := &dml.Mask{}
		coalesced.Add(span.Start, span.End)
		for _, pr := range fragRows[fid] {
			if pr.FragLocal >= span.Start && pr.FragLocal < span.End && !m.Deleted(pr.FragLocal) {
				reinsert = append(reinsert, pr.Stamped.Row)
			}
		}
		fragMasks[fid] = coalesced
	}

	// Write reinserted rows through a PENDING stream so they become
	// visible atomically with the masks at DML commit.
	var reinsertStreams []meta.StreamID
	if len(reinsert) > 0 {
		s, err := e.c.CreateStream(ctx, table, meta.Pending)
		if err != nil {
			return nil, err
		}
		const batch = 256
		for lo := 0; lo < len(reinsert); lo += batch {
			hi := lo + batch
			if hi > len(reinsert) {
				hi = len(reinsert)
			}
			if _, err := s.Append(ctx, reinsert[lo:hi]); err != nil {
				return nil, err
			}
		}
		if _, err := s.Finalize(ctx); err != nil {
			return nil, err
		}
		reinsertStreams = append(reinsertStreams, s.Info().ID)
	}

	if _, err := e.net.Unary(ctx, addr, wire.MethodCommitDML, &wire.CommitDMLRequest{
		Table:           table,
		FragmentMasks:   fragMasks,
		TailMasks:       tailMasks,
		ReinsertStreams: reinsertStreams,
	}); err != nil {
		return nil, err
	}
	res.Stats.RowsAffected = affected
	res.rows = [][]schema.Value{{schema.Int64(affected)}}
	return res, nil
}
