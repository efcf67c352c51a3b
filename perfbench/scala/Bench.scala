package perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Path, Paths}
import org.apache.spark.sql.SparkSession
import repro.baselines.Systems
import repro.core._
import repro.queries.{Q, Tables, TpchLite}
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** One benchmark workload: a closed loop in which a single client runs the
  * (system, query) list in sequence, each run starting when the previous
  * one finishes.
  */
final case class Workload(
  name: String,
  workers: Int,
  queries: Vector[Q],
  systems: Vector[(String, Int => EngineConfig)],
  kill: Boolean,
  warmPasses: Int,
)

/** One engine run of one (system, query). */
final case class Job(q: Q, system: String, cfg: EngineConfig, failures: Seq[(Int, Double)]) {
  def label: String = s"${q.id}/$system"
}

/** Counters read from a `RunResult` after a run. */
final case class Counters(
  tasks: Long, aborted: Long, shuffleBytes: Long, backupBytes: Long, spoolBytes: Long,
  gcsTxns: Long, lineageBytes: Long, rewound: Long, replay: Long, repush: Long,
  reread: Long, recoveredPartitions: Long)

object Counters {
  def of(rr: RunResult): Counters = {
    val m = rr.metrics
    Counters(m.tasks, m.abortedTasks, m.shuffleBytes, m.backupBytes, m.spoolBytes,
      rr.gcsTxns, rr.gcsLineageBytes, m.rewoundChannels, m.replayTasks, m.repushJobs,
      m.rereadJobs, m.recoveredPartitions)
  }
}

/** Per-call host times (ns) and counters of one traced run. */
final case class Traced(job: Job, mkplanNs: Long, ctorNs: Long, runNs: Long, compareNs: Long,
                        allocBytes: Long, c: Counters) {
  def wallNs: Long = mkplanNs + ctorNs + runNs
}

/** Runs jobs over one set of tables and checks every result against the
  * reference. A run that throws or returns a different multiset counts as
  * failed.
  */
final class Runner(t: Tables, ref: Map[String, Vector[String]], trace: Trace) {
  var attempted = 0L
  var failed = 0L

  private val threadBean =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  private def fail(job: Job, why: String): Unit = {
    failed += 1
    Console.err.println(s"FAILED ${job.label}: $why")
  }

  private def check(job: Job, rr: RunResult): Boolean = {
    val ok = Reference.canon(rr.rows) == ref(job.q.id)
    if (!ok) fail(job, s"result differs from the SparkSQL reference (${rr.rows.size} rows)")
    ok
  }

  /** Untraced run: the wall time covers `mkPlan`, `new Engine` and `run`.
    * Returns null if the run failed.
    */
  def run(job: Job): (RunResult, Long) = {
    attempted += 1
    try {
      val t0 = System.nanoTime
      val rr = new Engine(job.cfg, job.q.mkPlan(t), t.rows, job.failures).run()
      val ns = System.nanoTime - t0
      if (check(job, rr)) (rr, ns) else null
    } catch { case NonFatal(e) => fail(job, e.toString); null }
  }

  /** Traced run: the same calls, each inside its own span. */
  def runTraced(job: Job): Traced = {
    attempted += 1
    trace.nextRun()
    try trace.span("bench.run") {
      val a0 = threadBean.getCurrentThreadAllocatedBytes
      val t0 = System.nanoTime
      val plan = trace.span("queries.mkplan")(job.q.mkPlan(t))
      val t1 = System.nanoTime
      val e = trace.span("engine.ctor")(new Engine(job.cfg, plan, t.rows, job.failures))
      val t2 = System.nanoTime
      val rr = trace.span("engine.run")(e.run())
      val t3 = System.nanoTime
      val a1 = threadBean.getCurrentThreadAllocatedBytes
      val c = trace.span("engine.result")(Counters.of(rr))
      val t4 = System.nanoTime
      val ok = trace.span("verify.compare")(check(job, rr))
      val t5 = System.nanoTime
      if (ok) Traced(job, t1 - t0, t2 - t1, t3 - t2, t5 - t4, a1 - a0, c) else null
    } catch { case NonFatal(e) => fail(job, e.toString); null }
  }

  /** Simulated seconds of one checked run (NaN if it failed). */
  def sim(job: Job): Double = Option(run(job)).fold(Double.NaN)(_._1.simSeconds)

  /** Apply each input stage's fused scan kernel to that stage's input
    * batches, split as the engine splits them. Returns (input rows, ns).
    */
  def scanKernels(job: Job): (Long, Long) = {
    val plan = trace.span("queries.mkplan")(job.q.mkPlan(t))
    val t0 = System.nanoTime
    var rows = 0L
    trace.span("queries.scan_kernel") {
      plan.stages.foreach { s =>
        s.op match {
          case InputOp(table, fuse) =>
            t.rows(table).grouped(job.cfg.inputBatchRows).foreach { b => fuse(b); rows += b.length }
          case _ =>
        }
      }
    }
    (rows, System.nanoTime - t0)
  }
}

object Bench {
  private val quokka: Int => EngineConfig = Systems.quokka(_)

  val workloads: Vector[Workload] = Vector(
    // Every Engine mode and FT persistence path, few channels, big tasks:
    // host time goes to the per-row kernels.
    Workload("mixed-4w", 4, TpchLite.all, Vector(
      "quokka" -> quokka, "quokka-noft" -> (Systems.quokkaNoFt(_)),
      "spark" -> (Systems.sparkLike(_)), "trino" -> (Systems.trinoLike(_))),
      kill = false, warmPasses = 2),
    // One worker killed at 50% of the clean run: Algorithm 2 and replay.
    // Its only job per query is the killed Quokka run.
    Workload("kill-16w", 16, TpchLite.representative, Vector.empty,
      kill = true, warmPasses = 1),
  )

  private val SetupReps = 3
  private val KillFrac = 0.5

  final case class Opts(workload: String, seed: Long, seconds: Int, trace: Boolean, out: Path)

  private def parse(args: Array[String]): Opts = {
    val m = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Opts(need("workload"), need("seed").toLong, need("seconds").toInt,
      need("trace") == "1", Paths.get(m.getOrElse("out", ".bench_build")).toAbsolutePath)
  }

  private def nanosToMs(ns: Double): Double = ns / 1e6

  private def mean(xs: Iterable[Double]): Double = xs.sum / xs.size

  /** Linear interpolation between closest ranks. */
  private def pct(xs: Seq[Double], p: Double): Double = {
    val s = xs.sorted
    val h = (s.size - 1) * p
    val lo = h.toInt
    val hi = math.min(lo + 1, s.size - 1)
    s(lo) + (h - lo) * (s(hi) - s(lo))
  }

  private def geomean(xs: Iterable[Double]): Double = math.exp(xs.map(math.log).sum / xs.size)

  private def clock[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime
    val a = body
    (a, (System.nanoTime - t0) / 1e9)
  }

  private def gcMs: Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum

  private def heapPeakBytes: Long =
    ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(_.getType == java.lang.management.MemoryType.HEAP)
      .map(_.getPeakUsage.getUsed).sum

  private def startSpark(out: Path, threads: Int): SparkSession =
    SparkSession.builder
      .master(s"local[$threads]")
      .appName("perfbench")
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", threads)
      .config("spark.sql.codegen.wholeStage", false)
      .config("spark.sql.adaptive.enabled", false)
      .config("spark.local.dir", out.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", out.resolve("spark-warehouse").toString)
      .getOrCreate()

  /** Run whole passes over `jobs` until `seconds` have elapsed. Returns the
    * elapsed ns.
    */
  private def loop(jobs: Vector[Job], seconds: Double)(one: Job => Unit): Long = {
    val t0 = System.nanoTime
    val deadline = t0 + (seconds * 1e9).toLong
    while (System.nanoTime < deadline) jobs.foreach(one)
    System.nanoTime - t0
  }

  private def json(correct: Boolean, attempted: Long, failed: Long,
                   metrics: Seq[(String, Double, String)]): String = {
    val ms = metrics.map { case (n, v, u) => s""""$n": {"value": $v, "unit": "$u"}""" }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }

  /** Stop before any metric is measured: report failure and exit non-zero. */
  private def abort(runner: Runner, why: String): Nothing = {
    Console.err.println(s"FAILED: $why")
    println(json(correct = false, runner.attempted, runner.failed.max(1L), Nil))
    sys.exit(1)
  }

  def main(args: Array[String]): Unit = {
    val opts = parse(args)
    val w = workloads.find(_.name == opts.workload).getOrElse(
      throw new IllegalArgumentException(s"unknown workload ${opts.workload}; " +
        s"one of ${workloads.map(_.name).mkString(", ")}"))
    val mainStartMs = System.currentTimeMillis
    val jvmStartMs = ManagementFactory.getRuntimeMXBean.getStartTime
    val trace = new Trace(opts.trace)
    val seeds = Inputs.seeds(opts.seed, w.workers)
    val threads = math.min(4, Runtime.getRuntime.availableProcessors)

    // ------------------------------------------------------------- set-up
    val (spark, sparkS) = clock(trace.span("setup.spark")(startSpark(opts.out, threads)))
    val gens = (1 to SetupReps).map(_ => trace.span("setup.generate")(Inputs.generate(spark, seeds, trace)))
    val g = gens.last
    val t = g.tables
    val repS = gens.map(x => x.datagenS + x.ingestS)
    val (ref, referenceS) = clock(trace.span("verify.reference")(
      Reference.load(spark, t, g.digests, w.queries, opts.out.resolve("reference"), threads)))
    val (_, stopS) = clock(trace.span("setup.spark_stop")(spark.stop()))

    println(s"workload=${w.name} seed=${opts.seed} sf=${Inputs.Sf} workers=${w.workers} " +
      s"victim=${if (w.kill) seeds.victim.toString else "-"} trace=${if (opts.trace) 1 else 0}")
    for (n <- t.rows.keys.toVector.sorted)
      println(f"input $n%-9s rows=${t.rows(n).length}%8d digest=${g.digests(n)}%d")
    val inputsStable = gens.forall(_.digests == g.digests)

    val runner = new Runner(t, ref, trace)
    def job(q: Q, system: String, cfg: Int => EngineConfig, failures: Seq[(Int, Double)] = Nil) =
      Job(q, system, cfg(w.workers), failures)
    def killJob(q: Q, cleanSim: Double) =
      job(q, "quokka-kill", quokka, Seq((seeds.victim, cleanSim * KillFrac)))

    // Warm-up: one checked run of every job plus the clean / no-FT / killed
    // Quokka runs the simulated ratios need, then further passes over the
    // timed jobs. Simulated times are exact functions of (code, seed).
    val sims = mutable.LinkedHashMap.empty[(String, String), Double]
    val (jobs, warmupS) = clock(trace.span("setup.warmup") {
      for (q <- w.queries) {
        val clean = runner.sim(job(q, "quokka", quokka))
        if (clean.isNaN) abort(runner, "a clean warm-up run failed")
        sims((q.id, "quokka")) = clean
        sims((q.id, "quokka-noft")) = runner.sim(job(q, "quokka-noft", Systems.quokkaNoFt(_)))
        sims((q.id, "quokka-kill")) = runner.sim(killJob(q, clean))
      }
      val jobs =
        if (w.kill) w.queries.map(q => killJob(q, sims((q.id, "quokka"))))
        else for (q <- w.queries; (s, cfg) <- w.systems) yield job(q, s, cfg)
      for (j <- jobs) sims.getOrElseUpdate((j.q.id, j.system), runner.sim(j))
      for (_ <- 2 to w.warmPasses; j <- jobs) runner.run(j)
      jobs
    })
    val heapPeakMb = heapPeakBytes / 1e6
    val setupS = (System.currentTimeMillis - jvmStartMs) / 1000.0 - referenceS - (repS.sum - pct(repS, 0.5))
    println(f"setup phases: jvm_to_main=${(mainStartMs - jvmStartMs) / 1000.0}%.2f s spark=$sparkS%.2f s " +
      s"generate+ingest=${repS.map(x => f"$x%.2f").mkString("[", ", ", "]")} s " +
      f"reference=$referenceS%.2f s spark_stop=$stopS%.2f s warmup=$warmupS%.2f s")
    if (!inputsStable) abort(runner, "input digests differ between set-up repetitions")
    if (runner.failed > 0) abort(runner, "warm-up runs failed")

    // --------------------------------------------------------- timed loop
    val loopSeconds = if (opts.trace) opts.seconds / 2.0 else opts.seconds.toDouble
    val walls = ArrayBuffer.empty[(Job, Long)]
    val gc0 = gcMs
    val loopNs = loop(jobs, loopSeconds) { j =>
      val r = runner.run(j)
      if (r != null) walls += ((j, r._2))
    }
    val gcPerRunMs = (gcMs - gc0).toDouble / walls.size.max(1)
    val wallMs = walls.map(s => nanosToMs(s._2.toDouble)).toVector
    val p50 = pct(wallMs, 0.5)
    val p90 = pct(wallMs, 0.9)
    val aboveP90 = wallMs.count(_ > p90)

    val byQuery = w.queries.map(_.id)
    def ratioGeomean(num: String, den: String) =
      geomean(byQuery.map(q => sims((q, num)) / sims((q, den))))
    val endToEnd = Vector(
      ("setup_s", setupS, "s"),
      ("query_wall_ms.p50", p50, "ms"),
      ("query_wall_ms.p90", p90, "ms"),
      ("queries_per_s", walls.size / (loopNs / 1e9), "1/s"),
      ("sim_query_s.geomean", geomean(jobs.map(j => sims((j.q.id, j.system)))), "sim_s"),
      ("sim_ft_overhead.geomean", ratioGeomean("quokka", "quokka-noft"), "ratio"),
      ("sim_recovery_overhead.geomean", ratioGeomean("quokka-kill", "quokka"), "ratio"),
    )

    println(f"${"job"}%-18s ${"sim_s"}%10s ${"wall_p50_ms"}%12s")
    for (j <- jobs) {
      val ws = walls.collect { case (x, ns) if x eq j => nanosToMs(ns.toDouble) }
      println(f"${j.label}%-18s ${sims((j.q.id, j.system))}%10.3f ${if (ws.isEmpty) Double.NaN else pct(ws.toSeq, 0.5)}%12.2f")
    }
    println(s"timed samples=${walls.size} above_p90=$aboveP90 loop_s=${loopNs / 1e9}")

    // ------------------------------------------------------- traced loop
    val perLayer: Vector[(String, Double, String)] = if (!opts.trace) Vector.empty else {
      // Companions pair every query's clean and killed Quokka run, so the
      // host cost of recovery is measured on every workload.
      val companions =
        if (w.kill) w.queries.map(q => job(q, "quokka", quokka))
        else w.queries.map(q => killJob(q, sims((q.id, "quokka"))))
      val traced = ArrayBuffer.empty[Traced]
      loop(jobs ++ companions, opts.seconds / 2.0) { j =>
        val r = runner.runTraced(j)
        if (r != null) traced += r
      }
      val timed = traced.filter(x => jobs.exists(_ eq x.job)).toVector
      val (scanRows, scanNs) = jobs.map(runner.scanKernels).foldLeft((0L, 0L)) {
        case ((r, n), (r2, n2)) => (r + r2, n + n2)
      }
      def wallOf(q: String, system: String) =
        pct(traced.collect { case x if x.job.q.id == q && x.job.system == system =>
          nanosToMs(x.wallNs.toDouble) }.toSeq, 0.5)
      val cs = timed.map(_.c)
      val tasks = cs.map(_.tasks).sum.toDouble
      def perRun(f: Counters => Long): Double = mean(cs.map(c => f(c).toDouble))
      val runMsSum = timed.map(x => nanosToMs(x.runNs.toDouble)).sum
      val self = trace.selfMsByLayer
      Vector(
        ("setup.datagen_s", pct(gens.map(_.datagenS), 0.5), "s"),
        ("setup.ingest_s", pct(gens.map(_.ingestS), 0.5), "s"),
        ("setup.warmup_s", warmupS, "s"),
        ("queries.mkplan_ms", mean(timed.map(x => nanosToMs(x.mkplanNs.toDouble))), "ms"),
        ("queries.scan_kernel_ms", nanosToMs(scanNs.toDouble) / jobs.size, "ms"),
        ("queries.scan_rows_per_s", scanRows / (scanNs / 1e9), "rows/s"),
        ("engine.ctor_ms", mean(timed.map(x => nanosToMs(x.ctorNs.toDouble))), "ms"),
        ("engine.run_ms", runMsSum / timed.size, "ms"),
        ("engine.tasks", tasks / timed.size, "count"),
        ("engine.us_per_task", runMsSum * 1000.0 / tasks, "us"),
        ("engine.aborted_frac", cs.map(_.aborted).sum / tasks, "ratio"),
        ("engine.shuffle_mb", perRun(_.shuffleBytes) / 1e6, "MB"),
        ("ft.backup_mb", perRun(_.backupBytes) / 1e6, "MB"),
        ("ft.spool_mb", perRun(_.spoolBytes) / 1e6, "MB"),
        ("gcs.txns", perRun(_.gcsTxns), "count"),
        ("gcs.txns_per_task", cs.map(_.gcsTxns).sum / tasks, "ratio"),
        ("gcs.lineage_kb", perRun(_.lineageBytes) / 1024.0, "KB"),
        ("recovery.rewound_channels", perRun(_.rewound), "count"),
        ("recovery.replay_tasks", perRun(_.replay), "count"),
        ("recovery.repush_jobs", perRun(_.repush), "count"),
        ("recovery.reread_jobs", perRun(_.reread), "count"),
        ("recovery.recovered_partitions", perRun(_.recoveredPartitions), "count"),
        ("recovery.replay_frac", cs.map(_.replay).sum / tasks, "ratio"),
        ("recovery.sim_extra_s",
          mean(byQuery.map(q => sims((q, "quokka-kill")) - sims((q, "quokka")))), "sim_s"),
        ("recovery.wall_ms",
          mean(byQuery.map(q => wallOf(q, "quokka-kill") - wallOf(q, "quokka"))), "ms"),
        ("jvm.gc_ms", gcPerRunMs, "ms"),
        ("jvm.alloc_mb_per_run", mean(timed.map(_.allocBytes / 1e6)), "MB"),
        ("jvm.heap_peak_mb", heapPeakMb, "MB"),
        ("verify.reference_s", referenceS, "s"),
        ("verify.compare_ms", mean(traced.map(x => nanosToMs(x.compareNs.toDouble))), "ms"),
        ("verify.failed_frac", runner.failed.toDouble / runner.attempted, "ratio"),
        ("bench.samples", walls.size.toDouble, "count"),
        ("bench.self_ms", self.getOrElse("bench", 0.0), "ms"),
        ("setup.self_ms", self.getOrElse("setup", 0.0), "ms"),
        ("queries.self_ms", self.getOrElse("queries", 0.0), "ms"),
        ("engine.self_ms", self.getOrElse("engine", 0.0), "ms"),
        ("verify.self_ms", self.getOrElse("verify", 0.0), "ms"),
        ("trace.overhead_ms", pct(timed.map(x => nanosToMs(x.wallNs.toDouble)), 0.5) - p50, "ms"),
      )
    }
    if (opts.trace) {
      val file = opts.out.resolve("traces").resolve(s"${w.name}-seed${opts.seed}.jsonl")
      trace.write(file)
      println(s"spans=${trace.size} written to $file")
    }

    val failedFrac = runner.failed.toDouble / runner.attempted
    for ((n, v, u) <- endToEnd :+ (("failed_frac", failedFrac, "ratio"))) println(f"$n%-34s $v%14.6f $u")
    for ((n, v, u) <- perLayer) println(f"$n%-34s $v%14.6f $u")
    val reported = if (opts.trace) perLayer else endToEnd
    val correct = runner.failed == 0 && reported.forall(m => java.lang.Double.isFinite(m._2))
    println(json(correct, runner.attempted, runner.failed, reported))
    sys.exit(if (correct) 0 else 1)
  }
}
