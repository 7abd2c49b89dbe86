// Package strdict is an adaptive string-dictionary compression library for
// in-memory column stores, reproducing Müller, Ratsch and Faerber,
// "Adaptive String Dictionary Compression in In-Memory Column-Store
// Database Systems" (EDBT 2014).
//
// It provides three layers, mirroring the paper's three contributions:
//
//  1. A fixed set of compressed, order-preserving string dictionary formats:
//     the paper's eighteen survey variants (Section 3) plus two extensions,
//     LZ78 and OnPair. Build constructs any of them over a sorted string
//     set; every format supports single-tuple extract and locate.
//  2. A size-prediction framework (Section 4): Sample + EstimateSize predict
//     a format's size from a small uniform sample of the column, and
//     CostTable models per-operation runtimes.
//  3. A compression manager (Section 5): Manager maintains a global
//     space/time trade-off parameter c from memory-pressure feedback and
//     selects a format per column whenever its dictionary is rebuilt.
//
// A minimal but complete in-memory column store (package-level Store, Table
// and column types) serves as the substrate, including the write-optimized
// delta, merges, and the query helpers used by the bundled TPC-H
// implementation.
//
// Quick start:
//
//	d, err := strdict.Build(strdict.FCBlock, sortedUniqueStrings)
//	id, found := d.Locate("needle")
//	value := d.Extract(id)
//
// Adaptive selection:
//
//	mgr := strdict.NewManager(strdict.ManagerOptions{DesiredFreeBytes: 4 << 30})
//	mgr.ObserveFreeMemory(currentFree) // feed periodically
//	snap := col.Snapshot()
//	dec := mgr.ChooseFormat(strdict.ColumnStatsOfSnapshot(snap, lifetimeNs, 0.01, seed))
//	snap.Release()
//	col.Rebuild(dec.Format)
//
// To have this happen at every background merge, configure a MergeScheduler
// and hand it to StartMergeDaemon(ctx, sched, mgr).
package strdict

import (
	"context"

	"strdict/internal/colstore"
	"strdict/internal/core"
	"strdict/internal/dict"
	"strdict/internal/model"
	"strdict/internal/persist"
	"strdict/internal/service"
	"strdict/internal/tpch"
)

// Format identifies a dictionary variant.
type Format = dict.Format

// The dictionary formats of the paper's survey (Section 3.3), then the
// extensions.
const (
	Array       = dict.Array
	ArrayBC     = dict.ArrayBC
	ArrayHU     = dict.ArrayHU
	ArrayNG2    = dict.ArrayNG2
	ArrayNG3    = dict.ArrayNG3
	ArrayRP12   = dict.ArrayRP12
	ArrayRP16   = dict.ArrayRP16
	ArrayFixed  = dict.ArrayFixed
	FCBlock     = dict.FCBlock
	FCBlockBC   = dict.FCBlockBC
	FCBlockDF   = dict.FCBlockDF
	FCBlockHU   = dict.FCBlockHU
	FCBlockNG2  = dict.FCBlockNG2
	FCBlockNG3  = dict.FCBlockNG3
	FCBlockRP12 = dict.FCBlockRP12
	FCBlockRP16 = dict.FCBlockRP16
	FCInline    = dict.FCInline
	ColumnBC    = dict.ColumnBC

	// Extensions beyond the paper's survey: the LZ78-compressed dictionary
	// and the OnPair-style pair-table dictionary.
	LZ78   = dict.LZ78
	OnPair = dict.OnPair
)

// NumFormats returns the number of dictionary variants.
func NumFormats() int { return dict.NumFormats() }

// Dictionary is the read-only string dictionary interface (Definition 1):
// Extract(id), Locate(str), Len, Bytes, Format.
type Dictionary = dict.Dictionary

// Build constructs a dictionary of the given format over strs, which must
// be strictly ascending, unique and NUL-free.
func Build(f Format, strs []string) (Dictionary, error) { return dict.Build(f, strs) }

// AllFormats returns every format in declaration order.
func AllFormats() []Format { return dict.AllFormats() }

// ParseFormat converts a format name (e.g. "fc block rp 12") to its value.
func ParseFormat(name string) (Format, error) { return dict.ParseFormat(name) }

// CompressionRate computes the paper's Definition 2: summed string length
// divided by dictionary size.
func CompressionRate(d Dictionary, strs []string) float64 {
	return dict.CompressionRate(d, strs)
}

// Sample carries the sampled properties the size models consume.
type Sample = model.Sample

// TakeSample draws a uniform sample of about ratio*len(strs) strings (at
// least 5000, the paper's production floor) plus aligned blocks for the
// block-based formats.
func TakeSample(strs []string, ratio float64, seed int64) *Sample {
	return model.TakeSample(strs, ratio, seed)
}

// EstimateSize predicts Build(f, column).Bytes() from a sample without
// building the dictionary (Section 4.2).
func EstimateSize(f Format, s *Sample) uint64 { return model.EstimateSize(f, s) }

// CostTable holds per-format runtime constants (Section 4.1).
type CostTable = model.CostTable

// DefaultCostTable returns runtime constants measured on the reference
// machine; Calibrate re-measures them on the current hardware.
func DefaultCostTable() *CostTable { return model.DefaultCostTable() }

// Calibrate determines runtime constants with microbenchmarks over the
// given corpora (sorted unique string sets of a few thousand entries).
func Calibrate(corpora [][]string) *CostTable { return model.Calibrate(corpora) }

// Manager is the compression manager (Section 5): it owns the global
// trade-off parameter c and selects formats at dictionary-rebuild time.
type Manager = core.Manager

// ManagerOptions configures a Manager.
type ManagerOptions = core.Options

// NewManager returns a compression manager.
func NewManager(opts ManagerOptions) *Manager { return core.NewManager(opts) }

// ColumnStats is the manager's per-column input.
type ColumnStats = core.ColumnStats

// Candidate is one format's predicted position in the space/time plane.
type Candidate = core.Candidate

// Decision records a format choice.
type Decision = core.Decision

// Strategy selects the dividing function of Section 5.4.
type Strategy = core.Strategy

// The trade-off selection strategies.
const (
	StrategyConst = core.StrategyConst
	StrategyRel   = core.StrategyRel
	StrategyTilt  = core.StrategyTilt
)

// Candidates evaluates every format for a column.
func Candidates(stats ColumnStats, costs *CostTable) []Candidate {
	return core.Candidates(stats, costs)
}

// Select applies a strategy with trade-off parameter c to candidates.
func Select(strategy Strategy, c float64, cands []Candidate) Candidate {
	return core.Select(strategy, c, cands)
}

// Store is an in-memory column store: tables of dictionary-encoded string
// columns and plain numeric columns.
type Store = colstore.Store

// Table is a set of equally-long columns.
type Table = colstore.Table

// StringColumn is a dictionary-encoded string column with main and delta
// parts. Reads of the main part are lock-free: the column's read state is
// published through an atomic version pointer.
type StringColumn = colstore.StringColumn

// Snapshot pins one consistent, immutable view of a StringColumn —
// dictionary, code vector and delta — so an analytical scan can run a whole
// query against one (dict, codes) pair with zero per-row synchronization.
// Taking a snapshot is O(1) and copies no data; the view is the column as of
// the Snapshot call and never changes afterwards.
type Snapshot = colstore.Snapshot

// Int64Column is a plain numeric column.
type Int64Column = colstore.Int64Column

// Float64Column is a plain float column.
type Float64Column = colstore.Float64Column

// NewStore returns an empty store.
func NewStore() *Store { return colstore.NewStore() }

// ColumnStatsOfSnapshot assembles the manager's input for a column from its
// traced access counters, lifetime, and a dictionary sample, all read from
// one pinned snapshot — the form merge-time Choosers use, since the
// scheduler hands them the snapshot it decided on. Outside a Chooser, pin
// with StringColumn.Snapshot and Release afterwards.
func ColumnStatsOfSnapshot(s *Snapshot, lifetimeNs float64, sampleRatio float64, seed int64) ColumnStats {
	return core.SnapshotStats(s, lifetimeNs, sampleRatio, seed)
}

// Reconfigure asks the manager for a format for every string column of the
// store and rebuilds the dictionaries accordingly, returning the chosen
// format per column.
func Reconfigure(s *Store, mgr *Manager, lifetimeNs float64, sampleRatio float64, seed int64) map[string]Format {
	return tpch.Reconfigure(s, mgr, lifetimeNs, sampleRatio, seed)
}

// PersistentStore is a Store whose contents survive process crashes: row
// appends go to a group-committed write-ahead log and every merge
// checkpoints the freshly built main part in its compressed form. All Store
// functionality is embedded and journaled transparently.
type PersistentStore = persist.Store

// StoreOptions tunes a persistent store's durability behaviour, including
// the fault-handling knobs: FS (filesystem seam), OnHealth (durability
// state transitions), RetryLimit and RetryBackoff (bounded retry of
// transient I/O faults before the store degrades to read-only).
type StoreOptions = persist.Options

// HealthState is a persistent store's durability state: healthy, degraded
// (a transient I/O fault is being retried), or read-only (a fault outlived
// the retry budget; reads keep working, appends are no longer durable).
type HealthState = persist.HealthState

// The durability health states.
const (
	StateHealthy  = persist.StateHealthy
	StateDegraded = persist.StateDegraded
	StateReadOnly = persist.StateReadOnly
)

// HealthEvent is one durability state transition, delivered to
// StoreOptions.OnHealth off every store lock.
type HealthEvent = persist.HealthEvent

// FS is the filesystem seam the WAL and checkpoint paths write through;
// FaultFS is an FS that injects transient or permanent I/O faults for
// robustness testing (see internal/torture).
type FS = persist.FS

// FaultFS wraps an FS and injects faults per operation class.
type FaultFS = persist.FaultFS

// Op identifies one class of filesystem operation for FaultFS planning.
type Op = persist.Op

// The FaultFS operation classes. The read-side classes (OpReadDir,
// OpReadFile, OpWriteFile, OpTruncate) cover recovery: manifest and part
// loads, WAL replay reads, and torn-tail quarantine, so faults can be
// injected during OpenStore too.
const (
	OpCreate    = persist.OpCreate
	OpWrite     = persist.OpWrite
	OpSync      = persist.OpSync
	OpClose     = persist.OpClose
	OpRename    = persist.OpRename
	OpRemove    = persist.OpRemove
	OpSyncDir   = persist.OpSyncDir
	OpReadDir   = persist.OpReadDir
	OpReadFile  = persist.OpReadFile
	OpWriteFile = persist.OpWriteFile
	OpTruncate  = persist.OpTruncate
)

// CheckpointStats reports the most recent checkpoint's accounting — part
// files written versus re-referenced unchanged and the bytes that hit disk
// — via PersistentStore.LastCheckpoint. A checkpoint with one dirty column
// out of N writes one part and reuses N-1.
type CheckpointStats = persist.CheckpointStats

// RecoveryInfo reports what OpenStore found in the directory: the
// checkpoint it loaded, the WAL rows it replayed, and any torn or corrupt
// regions it quarantined.
type RecoveryInfo = persist.RecoveryInfo

// OpenStore opens (or creates) the persistent store in dir, recovering its
// contents bit-identically to the last durable snapshot: the newest intact
// checkpoint plus the write-ahead log replayed on top. Rows appended after
// OpenStore are durable once fsynced — within StoreOptions.FsyncInterval,
// or immediately after PersistentStore.Sync. Call Checkpoint to persist
// main parts eagerly and Close before exit.
func OpenStore(dir string, opts StoreOptions) (*PersistentStore, error) {
	return persist.Open(dir, opts)
}

// Marshal serializes a dictionary to its versioned binary form, suitable
// for persisting the read-optimized store.
func Marshal(d Dictionary) ([]byte, error) { return dict.Marshal(d) }

// Unmarshal reconstructs a dictionary from Marshal's output. The input is
// validated; corrupt bytes yield dict.ErrCorrupt rather than panics.
func Unmarshal(data []byte) (Dictionary, error) { return dict.Unmarshal(data) }

// MergeScheduler drives delta-to-main merges and tracks per-column merge
// intervals (the lifetime that normalizes the manager's time dimension).
// Due columns merge concurrently on the column pool (GOMAXPROCS workers)
// while readers keep querying the old column version until each column's
// atomic publish. Call Start to run it as a
// background daemon with its own timer, Close for graceful shutdown; or call
// Tick cooperatively from the ingest path. Append never waits for it.
type MergeScheduler = colstore.MergeScheduler

// MergeResult reports what a merge actually did: how many delta rows it
// folded into the main part, how many main-part rows it rewrote doing so,
// and whether it rebuilt the dictionary.
type MergeResult = colstore.MergeResult

// MergeStats is a scheduler's per-column merge history: full and partial
// merge counts and cumulative rows folded and rewritten.
type MergeStats = colstore.MergeStats

// NewMergeScheduler returns a scheduler that merges a column once its delta
// holds deltaRowThreshold rows. Set its Chooser to consult a Manager at
// merge time.
func NewMergeScheduler(s *Store, deltaRowThreshold int) *MergeScheduler {
	return colstore.NewMergeScheduler(s, deltaRowThreshold)
}

// StartMergeDaemon starts a scheduler the caller has configured (see
// MergeScheduler's fields) as a background daemon wired to a Manager: merges
// run on the daemon's own timer, each consulting the manager on a pinned
// snapshot of the column sampled at the paper's production ratio, with no
// cooperative Tick calls from the ingest path. A nil manager leaves the scheduler's Chooser as it is. Stop it with
// sched.Close (drains all deltas) or by cancelling ctx.
func StartMergeDaemon(ctx context.Context, sched *MergeScheduler, mgr *Manager) {
	if mgr != nil {
		sched.Chooser = func(snap *Snapshot, lifetimeNs float64) Format {
			return mgr.ChooseFormat(ColumnStatsOfSnapshot(snap, lifetimeNs, model.DefaultSampleRatio, 0)).Format
		}
	}
	sched.Start(ctx)
}

// ServiceServer is the sharded multi-tenant store service: N independent
// shards (each its own Store, merge daemon and journal), a deterministic
// (tenant, table) -> shard routing function, and an HTTP JSON API with
// batched group-committed appends (an item lands on all of its columns or
// on none) and snapshot-pinned queries. The shards select formats with one
// compression Manager; a gossip loop sums their memory footprints and
// steers its trade-off towards ServiceOptions.MemoryBudget. Mount Handler on any net/http server; Close drains the
// daemons and closes the journals.
type ServiceServer = service.Server

// ServiceOptions configures Serve: shard count, journal directory, the
// server-wide memory budget the gossip loop steers the shared Manager
// towards and its cadence, and whether the background daemons run at all.
type ServiceOptions = service.Options

// ServiceClient is the typed client for the service's /v1 JSON API: Append
// (batched), CountEq, ScanEq, ScanRange, Locate, Stats and Health.
type ServiceClient = service.Client

// ServiceAppendItem is one element of a batched ServiceClient.Append: n
// aligned rows for one (tenant, table), given column-wise.
type ServiceAppendItem = service.AppendItem

// ServiceAppendResult is the per-item outcome of a batched append.
type ServiceAppendResult = service.AppendResult

// ServiceScanResult is a scan response: the uncapped match count plus at
// most service.MaxScanRows (10,000) row indices.
type ServiceScanResult = service.ScanResult

// Serve opens a sharded store server. With ServiceOptions.Dir set, every
// shard recovers its journal from Dir/shard-NNNN and appends are durable
// once the batch's group commit returns; without a Dir the shards are
// in-memory. The caller owns serving the returned handler:
//
//	srv, err := strdict.Serve(strdict.ServiceOptions{Shards: 4, Dir: dir})
//	defer srv.Close()
//	http.ListenAndServe(":8080", srv.Handler())
func Serve(opts ServiceOptions) (*ServiceServer, error) { return service.New(opts) }

// Advice summarizes the decision space for one column: the pareto-optimal
// formats and the automatic selection across the trade-off range — the
// DBA-facing tuning advisor of Section 4.3.
type Advice = core.Advice

// Advise evaluates every format for the column and summarizes the decision
// space; cs lists the trade-off values to probe (nil for a default range).
func Advise(stats ColumnStats, costs *CostTable, cs []float64) Advice {
	return core.Advise(stats, costs, cs)
}
