package perfbench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path}
import scala.collection.mutable.ArrayBuffer

/** In-memory span recorder for the traced run. Spans are opened around the
  * benchmark's calls into each layer; they nest on the single benchmark
  * thread, so a span's children are exactly the spans opened while it is
  * open. Disabled, `span` only evaluates its body.
  */
final class Trace(val enabled: Boolean) {
  private final class Span(val id: Int, val name: String, val run: Int, val parent: Int,
                           val start: Long) {
    var end = 0L
    var childNs = 0L
  }

  private val spans = ArrayBuffer.empty[Span]
  private var open: List[Span] = Nil
  private var runId = 0

  /** Start a new run id: spans opened from now on belong to it. */
  def nextRun(): Unit = runId += 1

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val s = new Span(spans.size, name, runId, open.headOption.fold(-1)(_.id), System.nanoTime)
      spans += s
      open = s :: open
      try body
      finally {
        s.end = System.nanoTime
        open = open.tail
        open.headOption.foreach(_.childNs += s.end - s.start)
      }
    }

  def size: Int = spans.size

  /** Self time (duration minus the time covered by child spans) summed per
    * layer; a span's layer is its name up to the first '.'.
    */
  def selfMsByLayer: Map[String, Double] =
    spans.groupMapReduce(_.name.takeWhile(_ != '.'))(s => (s.end - s.start - s.childNs) / 1e6)(_ + _)

  /** Write every span as one JSON object per line. */
  def write(file: Path): Unit = {
    val t0 = spans.headOption.fold(0L)(_.start)
    val lines = spans.map { s =>
      s"""{"id":${s.id},"name":"${s.name}","run":${s.run},"parent":${s.parent},""" +
        s""""start_us":${(s.start - t0) / 1000},"end_us":${(s.end - t0) / 1000}}"""
    }
    Files.createDirectories(file.getParent)
    Files.write(file, (lines.mkString("\n") + "\n").getBytes(UTF_8))
  }
}
