package repro.core

/** Simulated-hardware parameters for the discrete-event cluster.
  *
  * `volumeScale` maps the synthetic SF (0.01 / 0.1) onto paper-scale data
  * volumes (SF100) for *timing only*: row counts and byte counts are
  * multiplied by it wherever a duration is computed, while the actual data
  * content (used for correctness) is untouched. With the defaults,
  * SF=0.1 × volumeScale=1000 behaves like SF100.
  *
  * Bandwidth/latency defaults follow the paper's testbed: r6id instances
  * with instance-attached NVMe (~1 GB/s effective), ~12.5 Gbps NIC on the
  * 2xlarge, and S3/HDFS "reliable store" writes that pay a per-object
  * latency — the mechanism behind spooling overhead growing with cluster
  * size (paper §V-C).
  */
final case class CostParams(
  coresPerWorker: Int = 8,
  volumeScale: Double = 1000.0,
  // per-row kernel costs (ns), before the per-system kernelFactor
  scanNsPerRow: Double = 60.0,
  joinNsPerRow: Double = 110.0,
  aggNsPerRow: Double = 70.0,
  outNsPerRow: Double = 25.0,
  // fixed cost to schedule/launch one task (GCS poll, dispatch)
  taskOverheadS: Double = 0.004,
  // TaskManagers poll the GCS for work on this quantum (paper §IV-B);
  // consume tasks batch everything that accumulated since the last poll,
  // which is what keeps dynamic batching coarse-grained
  pollIntervalS: Double = 0.05,
  // NIC uplink per worker
  netBytesPerS: Double = 1.4e9,
  netMsgLatencyS: Double = 0.0015,
  // instance-attached NVMe (upstream backup)
  diskBytesPerS: Double = 1.1e9,
  // reliable store (S3 / HDFS): bandwidth + per-object latency
  storeBytesPerS: Double = 2.2e8,
  storePutLatencyS: Double = 0.045,
  // GCS (Redis on head): one transaction per task commit
  gcsTxnS: Double = 0.0008,
  // failure handling
  detectS: Double = 2.0,
  planS: Double = 0.3,
  // checkpoint serialization cost per byte (ns)
  ckptNsPerByte: Double = 0.8,
) {
  /** Seconds of CPU for `rows` input rows at `nsPerRow`. */
  def cpuS(rows: Long, nsPerRow: Double, kernelFactor: Double): Double =
    rows * volumeScale * nsPerRow * kernelFactor / 1e9

  def diskS(bytes: Long): Double = bytes * volumeScale / diskBytesPerS

  def netS(bytes: Long): Double = netMsgLatencyS + bytes * volumeScale / netBytesPerS

  def storeS(bytes: Long, objects: Int): Double =
    objects * storePutLatencyS + bytes * volumeScale / storeBytesPerS

  def ckptS(bytes: Long): Double =
    bytes * volumeScale * ckptNsPerByte / 1e9 + storeS(bytes, 1)
}

object CostParams {
  /** Paper cluster presets. Total vCPUs match the paper's configurations:
    * 4 × r6id.2xlarge (8 vCPU), 16 × r6id.xlarge (4 vCPU), 32 × r6id.xlarge
    * (same instance type as 16 workers, so it uses `sixteenWorkers`).
    * xlarge instances get half the NIC and NVMe bandwidth of 2xlarge, and
    * pay proportionally more per small shuffle object (the paper's
    * "HDFS efficiency markedly decreases with smaller partitions").
    */
  val fourWorkers: CostParams = CostParams(
    coresPerWorker = 8, netBytesPerS = 1.4e9, diskBytesPerS = 0.85e9,
    netMsgLatencyS = 0.0005, taskOverheadS = 0.004,
    storeBytesPerS = 5.5e8, storePutLatencyS = 0.012)
  val sixteenWorkers: CostParams = CostParams(
    coresPerWorker = 4, netBytesPerS = 0.7e9, diskBytesPerS = 0.7e9,
    netMsgLatencyS = 0.0005, taskOverheadS = 0.006,
    storeBytesPerS = 2.2e8, storePutLatencyS = 0.018)
}
