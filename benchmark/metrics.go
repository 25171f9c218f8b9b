package main

// Metric describes one reported number. The tables below are the single
// source of the names, units, directions and bounds; BENCHMARK.json must
// list the same (the smoke test compares them).
type Metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the baseline median by which the metric may
	// get worse before -compare reports a regression; 0 means the metric
	// is only reported.
	Bound float64 `json:"bound,omitempty"`
	// Workloads lists where the metric applies; empty means everywhere.
	// Elsewhere it is reported as 0.
	Workloads []string `json:"workloads,omitempty"`
	Doc       string   `json:"doc"`
}

const (
	lower  = "lower"
	higher = "higher"
)

var (
	onlyDisk    = []string{"disk-social"}
	onlyDurable = []string{"durable-recover"}
	onlyCluster = []string{"cluster-refresh"}
	engineAll   = []string{"ram-dense", "ram-dense-1c", "disk-social", "durable-recover"}
)

// endToEnd are the metrics every workload reports from its untraced run.
var endToEnd = []Metric{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25,
		Doc: "New (or cluster start) until the first update is accepted; median of 21 construct+close cycles"},
	{Name: "ingest_mups", Unit: "Mupd/s", Better: higher, Bound: 0.25,
		Doc: "bulk-phase updates / wall time from the first ApplyBatch (Ingest) to Flush return"},
	{Name: "serve_mups", Unit: "Mupd/s", Better: higher, Bound: 0.25,
		Doc: "updates of one serve cycle (slice + cold query + trickle + delta query; cluster: trickle to answer) / the median cycle's time"},
	{Name: "query_cold_ms", Unit: "ms", Better: lower, Bound: 0.25,
		Doc: "median ConnectedComponents after a slice (cluster: after a forced-full refresh); the flush of buffered updates is part of it"},
	{Name: "query_delta_ms", Unit: "ms", Better: lower, Bound: 0.25,
		Doc: "ConnectedComponents after a trickle (cluster: after a delta refresh); mean of the attach trickles' median and the detach trickles' median"},
	{Name: "fresh_ms", Unit: "ms", Better: lower, Bound: 0.25,
		Doc: "time from handing a trickle to the ingest API to the answer that reflects it; mean of the attach trickles' median and the detach trickles' median"},
	{Name: "rss_peak_mib", Unit: "MiB", Better: lower, Bound: 0.25,
		Doc: "VmHWM of the measured process, its copy of the input stream included"},
}

// perLayer are the metrics of the traced run. The first four are
// end-to-end metrics of a single workload: the driver's contract wants
// every end-to-end metric from every workload, so they live here, but
// -compare still holds them to a bound on their workload.
var perLayer = []Metric{
	{Name: "disk_blocks_per_update", Unit: "blocks/upd", Better: lower, Bound: 0.10, Workloads: onlyDisk,
		Doc: "sketch-store blocks read+written over the whole lifecycle, close-time spill included, / updates"},
	{Name: "ckpt_delta_ms", Unit: "ms", Better: lower, Bound: 0.25, Workloads: onlyDurable,
		Doc: "median WriteDeltaCheckpoint to a file after a trickle"},
	{Name: "recover_s", Unit: "s", Better: lower, Bound: 0.25, Workloads: onlyDurable,
		Doc: "RecoverChain (base + delta chain + WAL suffix) until the recovered graph answers its first query"},
	{Name: "refresh_full_ms", Unit: "ms", Better: lower, Bound: 0.25, Workloads: onlyCluster,
		Doc: "median forced-full Refresh of the NoDeltaRefresh coordinator"},

	{Name: "hashing.mix64_ns", Unit: "ns", Better: lower, Workloads: engineAll, Doc: "replay of hashing.Mix64, per hash"},
	{Name: "cubesketch.slab_apply_ns_per_index", Unit: "ns", Better: lower, Workloads: engineAll,
		Doc: "replay of Slab.Apply on gutter-sized batches, per index (an update is two indices)"},
	{Name: "cubesketch.slab_apply_share", Unit: "ratio", Better: lower, Workloads: engineAll,
		Doc: "slab_apply_ns_per_index x indices applied / (bulk wall x apply goroutines): the most a free kernel could save"},
	{Name: "cubesketch.query_ns", Unit: "ns", Better: lower, Doc: "replay of Sketch.Query, per sketch"},
	{Name: "cubesketch.merge_ns_per_sketch", Unit: "ns", Better: lower, Doc: "replay of MergeSerialized, per sketch"},
	{Name: "gutter.leaf_insert_ns_per_update", Unit: "ns", Better: lower, Workloads: engineAll,
		Doc: "replay of LeafGutters.InsertEdges into a no-op sink, per update"},
	{Name: "gutter.leaf_flush_ns_per_batch", Unit: "ns", Better: lower, Workloads: engineAll,
		Doc: "replay of LeafGutters.Flush of half-full gutters, per emitted batch"},
	{Name: "gutter.spsc_ns_per_batch", Unit: "ns", Better: lower, Workloads: engineAll,
		Doc: "replay of one SPSC Push+Pop, per batch"},
	{Name: "core.batches", Unit: "count", Better: lower, Workloads: engineAll, Doc: "node batches applied in the bulk phase"},
	{Name: "core.updates_per_batch", Unit: "count", Better: higher, Workloads: engineAll, Doc: "bulk-phase gutter entries (2 per update) / batches"},
	{Name: "core.fill_emit_ratio", Unit: "ratio", Better: higher, Workloads: engineAll,
		Doc: "share of bulk-phase batches emitted by a full gutter, not by the final Flush; sizing check >= 2/3"},
	{Name: "core.shard_skew", Unit: "ratio", Better: lower, Workloads: engineAll, Doc: "max / mean of Stats.ShardBatches"},
	{Name: "core.rebalances", Unit: "count", Better: lower, Workloads: engineAll, Doc: "slice migrations by the rebalancer"},
	{Name: "core.foreign_batches", Unit: "count", Better: lower, Workloads: engineAll, Doc: "batches applied away from their storage-home shard"},
	{Name: "core.drain_ms", Unit: "ms", Better: lower, Workloads: engineAll, Doc: "span of the bulk phase's final Graph.Flush"},
	{Name: "core.query.cold_p90_ms", Unit: "ms", Better: lower, Doc: "p90 of the cold-query spans"},
	{Name: "core.query.delta_p90_ms", Unit: "ms", Better: lower, Doc: "p90 of the delta-query spans"},
	{Name: "core.query.cached_ns", Unit: "ns", Better: lower, Workloads: engineAll, Doc: "ConnectedComponents on an unchanged graph, per call"},
	{Name: "core.query.rounds", Unit: "count", Better: lower, Workloads: engineAll, Doc: "mean Boruvka rounds of the cold queries"},
	{Name: "core.query.delta_queries", Unit: "count", Better: higher, Workloads: engineAll, Doc: "queries answered by the delta path"},
	{Name: "core.query.delta_fallbacks", Unit: "count", Better: lower, Workloads: engineAll, Doc: "delta-eligible queries that ran from scratch"},
	{Name: "core.query.cache_hits", Unit: "count", Better: higher, Workloads: engineAll, Doc: "queries answered from the epoch cache"},
	{Name: "core.query.dirty_nodes", Unit: "count", Better: lower, Workloads: engineAll, Doc: "median dirty nodes in front of a trickle query"},
	{Name: "core.ckpt.full_ms", Unit: "ms", Better: lower, Workloads: onlyDurable, Doc: "span of SaveCheckpoint taken while producers run"},
	{Name: "core.ckpt.full_bytes", Unit: "bytes", Better: lower, Workloads: onlyDurable, Doc: "size of the full checkpoint file"},
	{Name: "core.ckpt.delta_bytes", Unit: "bytes", Better: lower, Workloads: onlyDurable, Doc: "mean size of a delta checkpoint file"},
	{Name: "core.ckpt.stall_ms", Unit: "ms", Better: lower, Workloads: onlyDurable, Doc: "Stats.CheckpointStallNanos of the mid-ingest SaveCheckpoint"},
	{Name: "core.ckpt.restore_ms", Unit: "ms", Better: lower, Workloads: onlyDurable, Doc: "span of OpenCheckpoint on the base file alone"},
	{Name: "core.recover.replay_updates", Unit: "count", Better: lower, Workloads: onlyDurable, Doc: "updates RecoverChain replayed from the WAL; sizing check >= 10 % of the stream"},
	{Name: "core.recover.replay_mups", Unit: "Mupd/s", Better: higher, Workloads: onlyDurable, Doc: "replayed updates / RecoverChain span"},
	{Name: "wal.append_ns_per_update", Unit: "ns", Better: lower, Workloads: onlyDurable, Doc: "replay of wal.Log.Append at the workload's batch size and policy"},
	{Name: "wal.replay_ns_per_update", Unit: "ns", Better: lower, Workloads: onlyDurable, Doc: "replay of wal.Log.Replay"},
	{Name: "wal.appends", Unit: "count", Better: lower, Workloads: onlyDurable, Doc: "Stats.WAL.Appends"},
	{Name: "wal.fsyncs", Unit: "count", Better: lower, Workloads: onlyDurable, Doc: "Stats.WAL.Fsyncs"},
	{Name: "wal.group_commit_size", Unit: "count", Better: higher, Workloads: onlyDurable, Doc: "appends / group commits"},
	{Name: "wal.bytes_per_update", Unit: "bytes", Better: lower, Workloads: onlyDurable, Doc: "log bytes / logged updates"},
	{Name: "diskstore.cache_hit_ratio", Unit: "ratio", Better: higher, Workloads: onlyDisk, Doc: "cache hits / lookups; sizing check 0.2-0.95"},
	{Name: "diskstore.cache_evictions", Unit: "count", Better: lower, Workloads: onlyDisk, Doc: "Stats.SketchCache.Evictions"},
	{Name: "diskstore.cache_writebacks", Unit: "count", Better: lower, Workloads: onlyDisk, Doc: "Stats.SketchCache.WriteBacks"},
	{Name: "diskstore.cache_apply_hit_ns", Unit: "ns", Better: lower, Workloads: onlyDisk, Doc: "replay of Cache.Apply on a resident group, per batch"},
	{Name: "diskstore.cache_apply_miss_ns", Unit: "ns", Better: lower, Workloads: onlyDisk, Doc: "replay of Cache.Apply on an evicted group, per batch"},
	{Name: "iomodel.read_ops", Unit: "count", Better: lower, Workloads: onlyDisk, Doc: "sketch-store read calls, whole lifecycle"},
	{Name: "iomodel.write_ops", Unit: "count", Better: lower, Workloads: onlyDisk, Doc: "sketch-store write calls, whole lifecycle"},
	{Name: "iomodel.read_blocks", Unit: "count", Better: lower, Workloads: onlyDisk, Doc: "sketch-store blocks read, whole lifecycle"},
	{Name: "iomodel.write_blocks", Unit: "count", Better: lower, Workloads: onlyDisk, Doc: "sketch-store blocks written, whole lifecycle"},
	{Name: "iomodel.query_read_ops", Unit: "count", Better: lower, Workloads: onlyDisk, Doc: "sketch-store read calls inside queries"},
	{Name: "stream.decode_ns_per_update", Unit: "ns", Better: lower, Workloads: []string{"cluster-refresh", "durable-recover"}, Doc: "replay of stream.DecodeUpdates"},
	{Name: "gzserve.wire_encode_ns_per_update", Unit: "ns", Better: lower, Workloads: onlyCluster, Doc: "replay of EncodeIngest"},
	{Name: "gzserve.wire_decode_ns_per_update", Unit: "ns", Better: lower, Workloads: onlyCluster, Doc: "replay of DecodeIngest"},
	{Name: "gzserve.send_rtt_us", Unit: "us", Better: lower, Workloads: onlyCluster, Doc: "replay of Client.Send of one frame to a loopback worker"},
	{Name: "gzserve.frames", Unit: "count", Better: lower, Workloads: onlyCluster, Doc: "ingest frames acknowledged by the workers"},
	{Name: "gzserve.retries", Unit: "count", Better: lower, Workloads: onlyCluster, Doc: "ingest frames resent"},
	{Name: "gzserve.duplicates", Unit: "count", Better: lower, Workloads: onlyCluster, Doc: "acks that reported an already-applied frame"},
	{Name: "gzserve.pull_full_ms", Unit: "ms", Better: lower, Workloads: onlyCluster, Doc: "median span of Client.Checkpoint(since=0)"},
	{Name: "gzserve.pull_delta_ms", Unit: "ms", Better: lower, Workloads: onlyCluster, Doc: "median span of Client.Checkpoint(since=last)"},
	{Name: "gzserve.refresh_delta_ms", Unit: "ms", Better: lower, Workloads: onlyCluster, Doc: "span of a delta Coordinator.Refresh; mean of the attach and detach medians"},
	{Name: "gzserve.refresh_bytes", Unit: "bytes", Better: lower, Workloads: onlyCluster, Doc: "mean checkpoint bytes shipped per delta refresh"},
	{Name: "gzserve.coord_query_ms", Unit: "ms", Better: lower, Workloads: onlyCluster, Doc: "median span of the coordinator's ConnectedComponents"},
	{Name: "api.ingestor_ns_per_update", Unit: "ns", Better: lower, Workloads: engineAll, Doc: "replay of Ingestor.ApplyBatch minus Graph.ApplyBatch"},
	{Name: "budget.ingest_sum_ns_per_update", Unit: "ns", Better: lower, Workloads: engineAll,
		Doc: "sum of unit cost x count over the ingest layers, per update"},
	{Name: "budget.ingest_gap_pct", Unit: "%", Better: lower, Workloads: engineAll,
		Doc: "share of the end-to-end ns/update (1000 / ingest_mups) the layer sum does not explain"},
	{Name: "trace_overhead_pct", Unit: "%", Better: lower, Doc: "untraced vs traced ingest_mups"},
}

// appliesTo reports whether m is measured on the workload.
func (m Metric) appliesTo(workload string) bool {
	if len(m.Workloads) == 0 {
		return true
	}
	for _, w := range m.Workloads {
		if w == workload {
			return true
		}
	}
	return false
}

// Workload describes one benchmark workload.
type Workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// procs is producers = shards = GOMAXPROCS; 0 means min(nproc, 2).
	procs int
}

var workloads = []Workload{
	{Name: "ram-dense", Why: "dense Kronecker in RAM on 2 cores: hashing, the XOR kernel, gutters and the SPSC hand-off do all the work, no I/O, no network"},
	{Name: "ram-dense-1c", procs: 1, Why: "the same inputs on 1 core, 1 producer, 1 shard: the serial baseline whose layer costs add up to its end-to-end ns/update"},
	{Name: "disk-social", Why: "skewed recurring-touch social stream with sketches on disk and a cache of 1/8 of the store: cache, block I/O and rebalancer on the blocking path"},
	{Name: "durable-recover", Why: "dense stream under a group-commit WAL with full and delta checkpoints, then recovery from chain plus log: writes beside reads of the same files"},
	{Name: "cluster-refresh", Why: "2 workers and a coordinator over loopback HTTP: wire codec, HTTP hop, seq gate, checkpoint ship and patch dominate, the kernel is a minor share"},
}

func findWorkload(name string) (Workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}
