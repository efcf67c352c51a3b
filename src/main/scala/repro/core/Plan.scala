package repro.core

import repro.core.Rows.R

/** Physical operators of the pipelined engine (paper Fig 1 / §IV-A).
  *
  * Every stage runs as `numChannels` parallel channels; each channel is a
  * sequence of tasks named (stage, channel, seq). Stateful operators carry
  * a per-channel state variable (hash tables, aggregation maps).
  */
sealed trait StageOp

/** Source stage: reads pre-split batches of `table` from replayable object
  * storage, applying the fused filter/project/pre-aggregation `fuse`
  * ("aggregation pushdown", paper §V-C). One task reads one batch.
  */
final case class InputOp(table: String, fuse: Array[R] => Array[R]) extends StageOp

/** Streaming symmetric hash join: each arriving batch is inserted into its
  * side's hash table and probed against the other side's table. The state
  * variable is the pair of hash tables — it grows monotonically, which is
  * exactly the state the paper argues makes checkpointing O(N^2).
  * `emit` may return null to drop a pair (join-level residual predicates).
  */
final case class JoinOp(
  leftUp: Int, rightUp: Int,
  lKey: R => Any, rKey: R => Any,
  emit: (R, R) => R,
) extends StageOp

/** Streaming aggregation: state is a key -> Array[Long] accumulator map
  * (all accumulators are exact fixed-point sums/counts). Emits its output
  * in a single flush task once every upstream channel is done and fully
  * consumed.
  */
final case class AggOp(
  key: R => Any,
  keyOut: R => Vector[Any],
  nAccs: Int,
  update: (Array[Long], R) => Unit,
  finish: (Vector[Any], Array[Long]) => R,
) extends StageOp

/** One stage of the plan. `outKey` is the partitioning key towards the
  * consumer stage (null for the final stage, whose flush output goes to the
  * head-node collector).
  */
final case class Stage(
  id: Int,
  op: StageOp,
  upstreams: Vector[Int],
  schema: Sch,
  outKey: R => Any,
)

/** A compiled query plan: stages in topological order (upstreams < id),
  * the last stage is always an AggOp whose flush is the query result.
  */
final case class Plan(stages: Vector[Stage], name: String) {
  require(stages.nonEmpty, "empty plan")
  stages.zipWithIndex.foreach { case (s, i) =>
    require(s.id == i, s"stage ids must be dense: ${s.id} at $i")
    s.upstreams.foreach(u => require(u < s.id, s"upstream $u not before stage ${s.id}"))
  }
  require(stages.last.op.isInstanceOf[AggOp], s"plan $name must end in an aggregation")

  val last: Int = stages.last.id
  def resultSchema: Sch = stages.last.schema

  /** The one consumer stage of each stage; -1 for the last stage, whose
    * flush goes to the head-node collector.
    */
  val consumer: Vector[Int] = stages.map(s => stages.indexWhere(_.upstreams.contains(s.id)))
  require(consumer.init.forall(_ >= 0), s"plan $name has a stage that feeds no consumer")
}

/** A stage declared to [[PlanBuilder]], whose partitioning key is set once
  * its consumer is declared.
  */
private final case class Pending(
  op: StageOp, upstreams: Vector[Int], schema: Sch, var outKey: R => Any)

/** Imperative builder for tree-shaped plans. Partitioning keys of producer
  * stages are fixed when their consumer is declared (a producer partitions
  * its output by the consumer's key for that side).
  */
final class PlanBuilder(val name: String) {
  private val buf = scala.collection.mutable.ArrayBuffer.empty[Pending]

  def input(table: String, schema: Sch)(fuse: Array[R] => Array[R]): Int = {
    buf += Pending(InputOp(table, fuse), Vector.empty, schema, null)
    buf.size - 1
  }

  def join(left: Int, right: Int, lKey: R => Any, rKey: R => Any,
           schema: Sch)(emit: (R, R) => R): Int = {
    require(buf(left).outKey == null && buf(right).outKey == null,
      "a stage can feed only one consumer")
    buf(left).outKey = lKey
    buf(right).outKey = rKey
    buf += Pending(JoinOp(left, right, lKey, rKey, emit), Vector(left, right), schema, null)
    buf.size - 1
  }

  def agg(up: Int, key: R => Any, keyOut: R => Vector[Any], nAccs: Int,
          schema: Sch)(update: (Array[Long], R) => Unit)(
          finish: (Vector[Any], Array[Long]) => R): Int = {
    require(buf(up).outKey == null, "a stage can feed only one consumer")
    buf(up).outKey = key
    buf += Pending(AggOp(key, keyOut, nAccs, update, finish), Vector(up), schema, null)
    buf.size - 1
  }

  def build(): Plan =
    Plan(buf.toVector.zipWithIndex.map { case (p, i) =>
      Stage(i, p.op, p.upstreams, p.schema, p.outKey)
    }, name)
}
