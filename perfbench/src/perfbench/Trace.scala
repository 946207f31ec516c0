package perfbench

import scala.collection.mutable.ArrayBuffer

/** One timed call into a layer. `parent` is the id of the enclosing span
  * (-1 at the top), `op` the op that caused it and `pass` the pass it ran in
  * (-1 during set-up).
  */
final case class Span(id: Int, parent: Int, name: String, op: String, pass: Int,
                      startNs: Long, endNs: Long)

/** In-memory span recorder for the benchmark's own calls into the program.
  *
  * Spans are kept in memory and written once, at the end of a traced run.
  * With tracing off, `span` only runs its body, so untraced passes measure the
  * program without the recorder's cost.
  */
object Trace {
  var enabled: Boolean = false
  var op: String = ""
  var pass: Int = -1

  private val spans = ArrayBuffer[Span]()
  private var open: List[Int] = Nil
  private var nextId = 0

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = nextId; nextId += 1
      val parent = open.headOption.getOrElse(-1)
      open = id :: open
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        open = open.tail
        spans += Span(id, parent, name, op, pass, t0, t1)
      }
    }

  def all: Vector[Span] = spans.toVector

  /** Self time of every span: its duration minus the time its children cover. */
  def selfSeconds(ss: Vector[Span]): Vector[(Span, Double)] = {
    val childNs = ss.groupMapReduce(_.parent)(s => s.endNs - s.startNs)(_ + _)
    ss.map(s => s -> (s.endNs - s.startNs - childNs.getOrElse(s.id, 0L)) / 1e9)
  }

  def write(path: java.nio.file.Path): Unit = {
    java.nio.file.Files.createDirectories(path.getParent)
    val w = java.nio.file.Files.newBufferedWriter(path)
    try spans.foreach { s =>
      w.write(s"""{"id":${s.id},"parent":${s.parent},"name":"${s.name}","op":"${Json.esc(s.op)}",""" +
        s""""pass":${s.pass},"start_ns":${s.startNs},"end_ns":${s.endNs}}""")
      w.newLine()
    } finally w.close()
  }
}
