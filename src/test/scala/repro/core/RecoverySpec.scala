package repro.core

import repro.{SparkSpec, TestUtil}
import repro.baselines.EngineRunner
import repro.ft._
import repro.queries.{Q, TpchData, TpchLite}

/** Fault-injection matrix: kill a worker mid-query under every recoverable
  * FT strategy and check that (a) the result is identical to the clean run
  * (which QueriesSpec verifies against DuckDB), (b) recovery actually
  * happened (rewinds/replays observed), and (c) the engine's built-in
  * replay-identity invariant (output-hash comparison on every replayed
  * task) never fired.
  */
class RecoverySpec extends SparkSpec {
  private val SF = 0.005
  private lazy val t = TpchData.load(spark, SF)

  private def base: EngineConfig = EngineConfig(
    workers = 3,
    cost = CostParams(coresPerWorker = 4, detectS = 0.3, planS = 0.05),
    inputBatchRows = 1024)

  private val systems: Vector[(String, EngineConfig)] = Vector(
    "quokka-wal"  -> base,
    "spark-like"  -> base.copy(mode = Stagewise, staticLineage = true, channelsPerWorker = 2),
    "spooling"    -> base.copy(ft = Spool),
  )

  private def clean(cfg: EngineConfig, q: Q) = EngineRunner.run(cfg, q, t)

  for (q <- TpchLite.representative; (sys, cfg) <- systems; frac <- Vector(0.3, 0.6)) {
    test(s"${q.id}/$sys: correct result when worker 1 dies at ${(frac * 100).toInt}%") {
      val ref = clean(cfg, q)
      val killAt = ref.simSeconds * frac
      val rr = EngineRunner.run(cfg, q, t, failures = Seq((1, killAt)))
      assert(TestUtil.canon(rr.rows) == TestUtil.canon(ref.rows), s"${q.id}/$sys wrong result")
      assert(rr.simSeconds >= killAt, "finished before the failure it survived?")
    }
  }

  test("recovery actually rewinds and replays state (q9, WAL)") {
    val q = TpchLite.q9
    val ref = clean(base, q)
    val rr = EngineRunner.run(base, q, t, failures = Seq((1, ref.simSeconds * 0.6)))
    assert(rr.metrics.rewoundChannels > 0, "no channels rewound")
    assert(rr.metrics.replayTasks > 0, "no tasks replayed")
    assert(rr.metrics.recoveredPartitions > 0, "no partitions recovered")
    assert(rr.simSeconds > ref.simSeconds, "failure run not slower than clean run")
    // re-pushed partitions are real network traffic
    assert(rr.metrics.shuffleBytes > ref.metrics.shuffleBytes, "recovery pushes not counted as shuffle")
  }

  test("recovery re-reads lost input partitions data-parallel (q1, WAL)") {
    val q = TpchLite.q1
    val ref = clean(base, q)
    val rr = EngineRunner.run(base, q, t, failures = Seq((1, ref.simSeconds * 0.5)))
    assert(TestUtil.canon(rr.rows) == TestUtil.canon(ref.rows))
    // worker 1's own input backups die with it => some re-reads must happen
    assert(rr.metrics.rereadJobs > 0, "expected input re-read jobs")
  }

  test("failure near query start and near query end both recover (q5, WAL)") {
    // a kill 1 ms before the clean finish rewinds last-stage channels whose
    // flush has already reached the collector
    val cases: Vector[(String, EngineConfig, Q, Double => Double)] = Vector(
      ("q5/quokka-wal at 5%", base, TpchLite.q5, _ * 0.05),
      ("q5/quokka-wal at 90%", base, TpchLite.q5, _ * 0.9),
      ("q1/spark-like 1 ms before the end", systems.toMap.apply("spark-like"), TpchLite.q1, _ - 0.001))
    for ((what, cfg, q, killAt) <- cases) {
      val ref = clean(cfg, q)
      val rr = EngineRunner.run(cfg, q, t, failures = Seq((1, killAt(ref.simSeconds))))
      assert(TestUtil.canon(rr.rows) == TestUtil.canon(ref.rows), s"$what: wrong result")
      assert(rr.metrics.rewoundChannels > 0, s"$what: no channels rewound")
    }
  }

  test("failure after query completion is a no-op (q3, WAL)") {
    val q = TpchLite.q3
    val ref = clean(base, q)
    val rr = EngineRunner.run(base, q, t, failures = Seq((1, ref.simSeconds + 100.0)))
    assert(rr.simSeconds == ref.simSeconds)
    assert(rr.metrics.rewoundChannels == 0)
  }

  test("two sequential failures of different workers recover (q9, WAL)") {
    val q = TpchLite.q9
    val ref = clean(base, q)
    val rr = EngineRunner.run(base, q, t,
      failures = Seq((1, ref.simSeconds * 0.3), (2, ref.simSeconds * 1.2)))
    assert(TestUtil.canon(rr.rows) == TestUtil.canon(ref.rows))
  }

  test("every worker is a survivable kill target (q7, WAL)") {
    val q = TpchLite.q7
    val ref = clean(base, q)
    for (w <- 0 until base.workers) {
      val rr = EngineRunner.run(base, q, t, failures = Seq((w, ref.simSeconds * 0.5)))
      assert(TestUtil.canon(rr.rows) == TestUtil.canon(ref.rows), s"kill worker $w wrong result")
    }
  }

  test("ft=none cannot recover: the engine reports the restart requirement") {
    val q = TpchLite.q3
    val cfg = base.copy(ft = NoFt)
    val ref = clean(cfg, q)
    assertThrows[IllegalStateException] {
      EngineRunner.run(cfg, q, t, failures = Seq((1, ref.simSeconds * 0.5)))
    }
  }

  test("recovery keeps the committed-lineage-only invariant observable") {
    // lineage bytes after a failure run are >= the clean run's: replay never
    // uncommits, and re-executed suffix tasks commit again
    val q = TpchLite.q9
    val ref = clean(base, q)
    val rr = EngineRunner.run(base, q, t, failures = Seq((1, ref.simSeconds * 0.5)))
    assert(rr.gcsLineageBytes >= ref.gcsLineageBytes)
  }
}
