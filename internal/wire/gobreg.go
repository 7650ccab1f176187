package wire

import "encoding/gob"

// The TCP transport (internal/rpc) moves messages as gob-encoded
// interface values, which requires every concrete type crossing the wire
// to be registered. Handlers and clients exchange pointers to these
// structs, so the pointer types are what gets registered. The gob
// registry is process-global, so doing this from init() here keeps the
// dependency arrow pointing from wire's consumers to wire, without rpc
// importing this package.
func init() {
	for _, m := range []any{
		&CreateStreamletRequest{},
		&CreateStreamletResponse{},
		&AppendRequest{},
		&AppendResponse{},
		&FlushRequest{},
		&FlushResponse{},
		&FinalizeStreamletRequest{},
		&FinalizeStreamletResponse{},
		&StreamletStateRequest{},
		&StreamletStateResponse{},
		&CreateTableRequest{},
		&CreateTableResponse{},
		&GetTableRequest{},
		&GetTableResponse{},
		&UpdateSchemaRequest{},
		&UpdateSchemaResponse{},
		&CreateStreamRequest{},
		&CreateStreamResponse{},
		&GetStreamRequest{},
		&GetStreamResponse{},
		&GetWritableStreamletRequest{},
		&GetWritableStreamletResponse{},
		&FlushStreamRequest{},
		&FlushStreamResponse{},
		&FinalizeStreamRequest{},
		&FinalizeStreamResponse{},
		&BatchCommitRequest{},
		&BatchCommitResponse{},
		&HeartbeatRequest{},
		&HeartbeatResponse{},
		&ReadViewRequest{},
		&ReadViewResponse{},
		&ReconcileRequest{},
		&ReconcileResponse{},
		&DegradeStreamletRequest{},
		&DegradeStreamletResponse{},
		&ConversionCandidatesRequest{},
		&ConversionCandidatesResponse{},
		&RegisterConversionRequest{},
		&RegisterConversionResponse{},
		&BeginDMLRequest{},
		&BeginDMLResponse{},
		&EndDMLRequest{},
		&EndDMLResponse{},
		&CommitDMLRequest{},
		&CommitDMLResponse{},
		&GCRequest{},
		&GCResponse{},
		&AcquireLeaseRequest{},
		&AcquireLeaseResponse{},
		&RenewLeaseRequest{},
		&RenewLeaseResponse{},
		&ReleaseLeaseRequest{},
		&ReleaseLeaseResponse{},
		&OpenReadSessionRequest{},
		&OpenReadSessionResponse{},
		&CloseReadSessionRequest{},
		&CloseReadSessionResponse{},
		&SplitShardRequest{},
		&SplitShardResponse{},
		&ReadRowsRequest{},
		&ReadRowsResponse{},
	} {
		gob.Register(m)
	}
}
