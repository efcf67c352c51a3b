package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Rows.R

class PlanSpec extends AnyFunSuite {
  private val sch = Sch.of("k" -> CLong, "v" -> CLong)

  private def mkAgg(b: PlanBuilder, up: Int): Int =
    b.agg(up, r => r(0), r => Vector(r(0)), 1, sch)((a, r) => a(0) += Rows.lng(r, 1))(
      (k, a) => Array[Any](k(0), a(0)))

  test("builder wires a scan-join-agg tree with partitioning keys") {
    val b = new PlanBuilder("t")
    val s0 = b.input("a", sch)(identity)
    val s1 = b.input("b", sch)(identity)
    val j = b.join(s0, s1, r => r(0), r => r(0), sch)((l, _) => l)
    mkAgg(b, j)
    val p = b.build()
    assert(p.stages.size == 4)
    assert(p.stages(0).outKey != null && p.stages(1).outKey != null)
    assert(p.consumer == Vector(2, 2, 3, -1))
    assert(p.last == 3)
  }

  test("a stage cannot feed two consumers") {
    val b = new PlanBuilder("t")
    val s0 = b.input("a", sch)(identity)
    val s1 = b.input("b", sch)(identity)
    b.join(s0, s1, r => r(0), r => r(0), sch)((l, _) => l)
    assertThrows[IllegalArgumentException] {
      b.join(s0, s1, r => r(0), r => r(0), sch)((l, _) => l)
    }
  }

  test("plans must end in an aggregation") {
    val b = new PlanBuilder("t")
    val s0 = b.input("a", sch)(identity)
    val s1 = b.input("b", sch)(identity)
    b.join(s0, s1, r => r(0), r => r(0), sch)((l, _) => l)
    assertThrows[IllegalArgumentException](b.build())
  }

  test("upstreams must precede their consumers (dense topological ids)") {
    val stages = Vector(
      Stage(0, InputOp("a", identity[Array[R]]), Vector.empty, sch, r => r(0)))
    assertThrows[IllegalArgumentException] {
      Plan(stages :+ Stage(2, InputOp("b", identity[Array[R]]), Vector.empty, sch, null), "bad")
    }
  }

  test("static batch size must be positive") {
    assertThrows[IllegalArgumentException](StaticBatch(0))
  }

  test("engine config derives channel count") {
    val c = EngineConfig(workers = 4, channelsPerWorker = 3)
    assert(c.channels == 12)
    assertThrows[IllegalArgumentException](EngineConfig(workers = 0))
  }
}
