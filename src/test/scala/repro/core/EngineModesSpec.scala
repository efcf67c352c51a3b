package repro.core

import repro.{SparkSpec, TestUtil}
import repro.baselines.EngineRunner
import repro.ft._
import repro.queries.{TpchData, TpchLite}

/** Every execution mode / batching policy / FT strategy must compute the
  * same result as the reference configuration (dynamic pipelined + WAL):
  * the fault-tolerance and scheduling machinery may change timing, never
  * answers.
  */
class EngineModesSpec extends SparkSpec {
  private val SF = 0.005
  private lazy val t = TpchData.load(spark, SF)

  private def base: EngineConfig = EngineConfig(
    workers = 3,
    cost = CostParams(coresPerWorker = 4, detectS = 0.5, planS = 0.1),
    inputBatchRows = 1024)

  private lazy val reference: Map[String, Vector[String]] =
    TpchLite.all.map(q => q.id -> TestUtil.canon(EngineRunner.run(base, q, t).rows)).toMap

  private val variants: Vector[(String, EngineConfig => EngineConfig)] = Vector(
    "stagewise"        -> (c => c.copy(mode = Stagewise)),
    "stagewise+barrier" -> (c => c.copy(mode = Stagewise, stageOverheadS = 0.4)),
    "static-8"         -> (c => c.copy(batching = StaticBatch(8), staticLineage = true)),
    "static-128"       -> (c => c.copy(batching = StaticBatch(128), staticLineage = true)),
    "spooling"         -> (c => c.copy(ft = Spool)),
    "checkpoint-full"  -> (c => c.copy(ft = Ckpt(1.0, incremental = false))),
    "checkpoint-incr"  -> (c => c.copy(ft = Ckpt(1.0, incremental = true))),
    "no-ft"            -> (c => c.copy(ft = NoFt)),
    "slow-kernels"     -> (c => c.copy(kernelFactor = 1.8)),
    "2-channels-per-worker" -> (c => c.copy(channelsPerWorker = 2)),
    "tiny-batches"     -> (c => c.copy(inputBatchRows = 256)),
    "single-worker"    -> (c => c.copy(workers = 1)),
  )

  for (q <- TpchLite.all; (name, mod) <- variants) {
    test(s"${q.id}: $name matches the reference result") {
      val rr = EngineRunner.run(mod(base), q, t)
      assert(TestUtil.canon(rr.rows) == reference(q.id), s"${q.id}/$name result diverged")
    }
  }

  test("engine runs are deterministic: identical times and results") {
    // the kill case covers recovery: rewinds, replays and re-pushes
    val q9Kill = Seq((1, EngineRunner.run(base, TpchLite.q9, t).simSeconds * 0.5))
    for ((q, failures) <- Vector((TpchLite.q3, Nil), (TpchLite.q9, Nil), (TpchLite.q9, q9Kill))) {
      val what = s"${q.id} failures=$failures"
      val a = EngineRunner.run(base, q, t, failures)
      val b = EngineRunner.run(base, q, t, failures)
      if (failures.nonEmpty) assert(a.metrics.replayTasks > 0, s"$what: no recovery happened")
      assert(a.simSeconds == b.simSeconds, s"$what: nondeterministic clock")
      assert(TestUtil.canon(a.rows) == TestUtil.canon(b.rows), s"$what: results differ")
      assert(a.metrics.tasks == b.metrics.tasks, s"$what: task counts differ")
      assert(a.metrics.replayTasks == b.metrics.replayTasks, s"$what: replay counts differ")
      assert(a.metrics.repushJobs == b.metrics.repushJobs, s"$what: re-push counts differ")
      assert(a.gcsTxns == b.gcsTxns, s"$what: GCS transaction counts differ")
    }
  }

  test("stagewise mode never starts a consumer before its inputs complete") {
    // with a barrier per stage, the stagewise clock is at least the pipelined one
    val q = TpchLite.q8
    val p = EngineRunner.run(base, q, t).simSeconds
    val s = EngineRunner.run(base.copy(mode = Stagewise), q, t).simSeconds
    assert(s >= p * 0.99, s"stagewise ($s) unexpectedly faster than pipelined ($p)")
  }
}
