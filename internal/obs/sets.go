package obs

// Pre-wired metric sets for each instrumented layer. Every recorder method
// is nil-safe on the set pointer, so layers carry a `*obs.XxxMetrics` field
// that defaults to nil and costs nothing until a registry is attached.

// SecondsBuckets is the default latency histogram layout: 100µs up to ~100s.
var SecondsBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100,
}

// BatchBuckets is the default layout for group-commit batch sizes.
var BatchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// VerifyMetrics observes the verification pipeline around the solver:
// proofs completed, per-proof wall time, and Unknown verdicts by the
// exhausted budget's limits.Reason.
type VerifyMetrics struct {
	Proofs       *Counter
	ProofSeconds *Histogram
	Unknowns     *CounterVec
}

// NewVerifyMetrics registers the scooter_verify_* family in reg. Store
// lookups and solver effort are not counted here: a Workspace exports them
// as CounterFunc collectors over its verify.Stats, the one counter set.
func NewVerifyMetrics(reg *Registry) *VerifyMetrics {
	return &VerifyMetrics{
		Proofs:       reg.Counter("scooter_verify_proofs_total", "Strictness proofs completed (all verdicts)."),
		ProofSeconds: reg.Histogram("scooter_verify_proof_seconds", "Per-proof wall time in seconds.", SecondsBuckets),
		Unknowns:     reg.CounterVec("scooter_verify_unknown_total", "Inconclusive verdicts by exhausted budget.", "reason"),
	}
}

// ObserveProof records one completed proof and its duration. Nil-safe.
func (m *VerifyMetrics) ObserveProof(seconds float64) {
	if m == nil {
		return
	}
	m.Proofs.Inc()
	m.ProofSeconds.Observe(seconds)
}

// RecordUnknown counts an Inconclusive verdict under its reason. Nil-safe.
func (m *VerifyMetrics) RecordUnknown(reason string) {
	if m == nil {
		return
	}
	m.Unknowns.With(reason).Inc()
}

// WALMetrics observes the write-ahead log: appends, physical writes,
// fsyncs, group-commit batch sizes, compactions, and recovery.
type WALMetrics struct {
	Appends          *Counter
	Fsyncs           *Counter
	BytesWritten     *Counter
	BatchRecords     *Histogram
	BatchOverflows   *Counter
	Compactions      *Counter
	RecoverySeconds  *Gauge
	RecoveredRecords *Gauge
}

// NewWALMetrics registers the scooter_wal_* family in reg.
func NewWALMetrics(reg *Registry) *WALMetrics {
	return &WALMetrics{
		Appends:          reg.Counter("scooter_wal_appends_total", "Records appended to the log."),
		Fsyncs:           reg.Counter("scooter_wal_fsyncs_total", "fsync calls issued by the log."),
		BytesWritten:     reg.Counter("scooter_wal_bytes_written_total", "Bytes physically written to segments."),
		BatchRecords:     reg.Histogram("scooter_wal_batch_records", "Records coalesced per group-commit flush.", BatchBuckets),
		BatchOverflows:   reg.Counter("scooter_wal_batch_overflows_total", "Group-commit batches split because they exceeded the record cap."),
		Compactions:      reg.Counter("scooter_wal_compactions_total", "Completed log compactions."),
		RecoverySeconds:  reg.Gauge("scooter_wal_recovery_seconds", "Duration of the last crash recovery."),
		RecoveredRecords: reg.Gauge("scooter_wal_recovered_records", "Records replayed by the last crash recovery."),
	}
}

// RecordBatchOverflow counts one drain whose batch exceeded the record cap
// and was split into capped chunks. Nil-safe.
func (m *WALMetrics) RecordBatchOverflow() {
	if m == nil {
		return
	}
	m.BatchOverflows.Inc()
}

// RecordAppend counts one logical append. Nil-safe.
func (m *WALMetrics) RecordAppend() {
	if m == nil {
		return
	}
	m.Appends.Inc()
}

// RecordFsync counts one fsync. Nil-safe.
func (m *WALMetrics) RecordFsync() {
	if m == nil {
		return
	}
	m.Fsyncs.Inc()
}

// RecordBytes counts n bytes physically written. Nil-safe.
func (m *WALMetrics) RecordBytes(n int) {
	if m == nil {
		return
	}
	m.BytesWritten.Add(int64(n))
}

// ObserveBatch records the record count of one group-commit flush. Nil-safe.
func (m *WALMetrics) ObserveBatch(records int) {
	if m == nil {
		return
	}
	m.BatchRecords.Observe(float64(records))
}

// RecordCompaction counts one completed compaction. Nil-safe.
func (m *WALMetrics) RecordCompaction() {
	if m == nil {
		return
	}
	m.Compactions.Inc()
}

// RecordRecovery stores the last crash recovery's duration and replayed
// record count. Nil-safe.
func (m *WALMetrics) RecordRecovery(seconds float64, records int) {
	if m == nil {
		return
	}
	m.RecoverySeconds.Set(seconds)
	m.RecoveredRecords.Set(float64(records))
}

// ReplicaMetrics observes the primary's replication server: WAL frames and
// bytes shipped, heartbeats, and snapshot bootstraps served. Follower-side
// watermarks (applied/durable LSN, lag) are scrape-time GaugeFuncs over
// Follower.Status, registered by the follower workspace.
type ReplicaMetrics struct {
	FramesSent      *Counter
	BytesSent       *Counter
	Heartbeats      *Counter
	SnapshotsServed *Counter
}

// NewReplicaMetrics registers the scooter_repl_* server family in reg.
func NewReplicaMetrics(reg *Registry) *ReplicaMetrics {
	return &ReplicaMetrics{
		FramesSent:      reg.Counter("scooter_repl_frames_sent_total", "WAL frames streamed to followers."),
		BytesSent:       reg.Counter("scooter_repl_bytes_sent_total", "WAL frame payload bytes streamed to followers."),
		Heartbeats:      reg.Counter("scooter_repl_heartbeats_total", "Heartbeats sent to followers."),
		SnapshotsServed: reg.Counter("scooter_repl_snapshots_served_total", "Snapshot bootstraps served to followers."),
	}
}

// RecordFrame counts one frame of n payload bytes. Nil-safe.
func (m *ReplicaMetrics) RecordFrame(n int) {
	if m == nil {
		return
	}
	m.FramesSent.Inc()
	m.BytesSent.Add(int64(n))
}

// RecordHeartbeat counts one heartbeat. Nil-safe.
func (m *ReplicaMetrics) RecordHeartbeat() {
	if m == nil {
		return
	}
	m.Heartbeats.Inc()
}

// RecordSnapshot counts one snapshot bootstrap of n bytes. Nil-safe.
func (m *ReplicaMetrics) RecordSnapshot(n int) {
	if m == nil {
		return
	}
	m.SnapshotsServed.Inc()
	m.BytesSent.Add(int64(n))
}

// BackfillMetrics observes an online migration's batched backfill: how
// far the sweep has progressed and how much of the collection is still in
// the old shape (the dual-read window's lag).
type BackfillMetrics struct {
	Docs      *Counter
	Batches   *Counter
	Skipped   *Counter
	Watermark *Gauge
	Remaining *Gauge
}

// NewBackfillMetrics registers the scooter_backfill_* family in reg.
func NewBackfillMetrics(reg *Registry) *BackfillMetrics {
	return &BackfillMetrics{
		Docs:      reg.Counter("scooter_backfill_docs_total", "Documents populated by online backfill sweeps."),
		Batches:   reg.Counter("scooter_backfill_batches_total", "Durable backfill batches committed."),
		Skipped:   reg.Counter("scooter_backfill_skipped_total", "Documents the sweep found already in the new shape (lazy-migrated, resumed, or inserted under the new schema)."),
		Watermark: reg.Gauge("scooter_backfill_watermark", "Highest document id the current backfill has swept."),
		Remaining: reg.Gauge("scooter_backfill_remaining_docs", "Documents the current backfill has not reached yet (backfill lag)."),
	}
}

// RecordBatch accounts one durable backfill batch: populated docs, docs
// found already migrated, the new watermark, and the remaining lag.
// Nil-safe.
func (m *BackfillMetrics) RecordBatch(populated, skipped int, watermark int64, remaining int) {
	if m == nil {
		return
	}
	m.Batches.Inc()
	m.Docs.Add(int64(populated))
	m.Skipped.Add(int64(skipped))
	m.Watermark.Set(float64(watermark))
	m.Remaining.Set(float64(remaining))
}

// ORMMetrics observes the policy boundary: every read filtered through
// field policies and every write gated by them.
type ORMMetrics struct {
	ReadsChecked   *Counter
	FieldsStripped *Counter
	WritesChecked  *Counter
	WritesDenied   *Counter
	// LazyReads / LazyWrites count dual-read-window shim activations:
	// documents whose pending migration field was computed on read, or
	// persisted ahead of a write touching a not-yet-backfilled document.
	LazyReads  *Counter
	LazyWrites *Counter
}

// NewORMMetrics registers the scooter_orm_* family in reg.
func NewORMMetrics(reg *Registry) *ORMMetrics {
	return &ORMMetrics{
		ReadsChecked:   reg.Counter("scooter_orm_reads_checked_total", "Field read-policy checks evaluated."),
		FieldsStripped: reg.Counter("scooter_orm_fields_stripped_total", "Fields removed from results by read policies."),
		WritesChecked:  reg.Counter("scooter_orm_writes_checked_total", "Write operations entering the policy gate."),
		WritesDenied:   reg.Counter("scooter_orm_writes_denied_total", "Write operations rejected by policy or read-only mode."),
		LazyReads: reg.Counter("scooter_orm_lazy_reads_total",
			"Reads that computed a pending migration field on access (dual-read window)."),
		LazyWrites: reg.Counter("scooter_orm_lazy_writes_total",
			"Writes that persisted a pending migration field ahead of the backfill sweep."),
	}
}

// RecordLazyRead counts one read-side shim activation. Nil-safe.
func (m *ORMMetrics) RecordLazyRead() {
	if m == nil {
		return
	}
	m.LazyReads.Inc()
}

// RecordLazyWrite counts one write-side shim activation. Nil-safe.
func (m *ORMMetrics) RecordLazyWrite() {
	if m == nil {
		return
	}
	m.LazyWrites.Inc()
}

// RecordReadCheck counts one field read-policy evaluation; stripped says
// whether the field was withheld. Nil-safe.
func (m *ORMMetrics) RecordReadCheck(stripped bool) {
	if m == nil {
		return
	}
	m.ReadsChecked.Inc()
	if stripped {
		m.FieldsStripped.Inc()
	}
}

// RecordWriteCheck counts one write entering the policy gate. Nil-safe.
func (m *ORMMetrics) RecordWriteCheck() {
	if m == nil {
		return
	}
	m.WritesChecked.Inc()
}

// RecordWriteDenied counts one write rejected. Nil-safe.
func (m *ORMMetrics) RecordWriteDenied() {
	if m == nil {
		return
	}
	m.WritesDenied.Inc()
}
