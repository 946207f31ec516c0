package perfbench

import scala.collection.mutable
import repro.engine.{SimResult, TuningAction}
import repro.engine.Data.Row

/** Virtual outcome of one simulator run, as the program reports it.
  *
  * `verdicts` lists every tuning request of the run with its outcome; `issued`
  * and `rejected` count the requests the control plane vetted. `rows` is kept
  * only until the op's answers are checked.
  */
final case class RunRecord(
    label: String,
    duration: Double,
    allocDriverSeconds: Double,
    busyCoreSeconds: Double,
    switches: Vector[(Double, Double)],
    verdicts: Vector[String],
    issued: Int,
    rejected: Int,
    ignored: Int,
    deadline: Option[Double],
    rowsMoved: Long,
    ticks: Long,
    rowCount: Int,
    rows: Vector[Row],
) {
  /** Every virtual number of the run, doubles written exactly. */
  def fingerprint: String = {
    def d(x: Double) = java.lang.Double.toString(x)
    val sw = switches.map { case (s, b) => s"${d(s)}/${d(b)}" }.mkString(",")
    val dl = deadline.map(x => s" deadline=${d(x)}").getOrElse("")
    s"$label dur=${d(duration)} alloc=${d(allocDriverSeconds)} busy=${d(busyCoreSeconds)} " +
      s"rows=$rowCount$dl switches=[$sw] requests=[${verdicts.mkString("; ")}]"
  }

  def missedDeadline: Boolean = deadline.exists(duration > _)
}

object RunRecord {
  /** `gateLog` holds the verdicts of a gate the benchmark wrapped; `script`
    * the (time, action, verdict) log of a progress script; `decisions` an
    * auto-tuner's or predictor's decision log.
    */
  def of(label: String, res: SimResult, tickSeconds: Double,
         gateLog: Seq[(Double, TuningAction, Either[String, Unit])] = Nil,
         script: Seq[(Double, TuningAction, Either[String, Unit])] = Nil,
         decisions: Seq[(Double, String)] = Nil,
         deadline: Option[Double] = None): RunRecord = {
    def v(log: Seq[(Double, TuningAction, Either[String, Unit])], tag: String) = log.map {
      case (t, a, Right(())) => s"$tag@$t $a ok"
      case (t, a, Left(r)) => s"$tag@$t $a rejected: $r"
    }
    val verdicts = (v(gateLog, "gate") ++ v(script, "script") ++
      decisions.map { case (t, m) => s"tuner@$t $m" } ++
      res.requestLog.map { case (t, m) => s"sched@$t $m" }).toVector
    RunRecord(
      label, res.duration, res.allocatedDriverSeconds, res.busyCoreSeconds,
      res.switchLog.map(s => (s.shuffleSeconds, s.buildSeconds)),
      verdicts,
      issued = gateLog.size + script.size + decisions.size,
      rejected = (gateLog ++ script).count(_._3.isLeft) + decisions.count(_._2.startsWith("REJECTED")),
      ignored = res.requestLog.count(_._2.startsWith("IGNORED")),
      deadline = deadline,
      rowsMoved = res.collector.samples.lastOption.map(_.rowsOut.values.sum).getOrElse(0L),
      ticks = math.round(res.duration / tickSeconds),
      rowCount = res.rows.size,
      rows = res.rows,
    )
  }
}

/** One unit of measured work. `run` is the program's part and is what op
  * latency measures; `check` is the benchmark's comparison of its answers
  * against references and is timed apart. `schedule` says exactly what the op
  * does, so a failure can be reproduced from it.
  */
final case class Op(id: String, schedule: String,
                    run: () => Vector[RunRecord],
                    check: Vector[RunRecord] => Unit = _ => ())

/** A wrong answer found by the benchmark's own checks. */
final class WrongAnswer(msg: String) extends RuntimeException(msg)

/** Counts the ops of a pass add up, for layers whose work is not visible in
  * the run records (plan calls, rows converted, oracle checks, ...).
  */
object Tally {
  private val m = mutable.LinkedHashMap[String, Double]()
  def add(k: String, v: Double): Unit = m(k) = m.getOrElse(k, 0.0) + v
  def max(k: String, v: Double): Unit = m(k) = math.max(m.getOrElse(k, v), v)
  def reset(): Map[String, Double] = { val r = m.toMap; m.clear(); r }
}

/** Order-insensitive answer comparison. Runtime tuning reorders the merges of
  * partial aggregates, which moves floating-point sums in the last bits, so
  * doubles compare with a relative tolerance.
  */
object Answers {
  private def key(r: Row): String =
    r.iterator.map { case _: Double => ""; case v => String.valueOf(v) }.mkString("|")

  def canon(rows: Seq[Row]): Vector[Row] = rows.toVector.sortBy(key)

  private def close(a: Any, b: Any): Boolean = (a, b) match {
    case (x: Double, y: Double) =>
      math.abs(x - y) <= 1e-6 * math.max(1.0, math.max(math.abs(x), math.abs(y)))
    case (x, y) => x == y
  }

  /** Throws [[WrongAnswer]] unless `got` and the canonical `want` hold the same rows. */
  def expectSame(what: String, got: Seq[Row], want: Vector[Row]): Unit = {
    if (got.size != want.size)
      throw new WrongAnswer(s"$what: ${got.size} rows, expected ${want.size}")
    canon(got).iterator.zip(want.iterator).zipWithIndex.foreach { case ((g, w), i) =>
      if (g.length != w.length || !g.indices.forall(j => close(g(j), w(j))))
        throw new WrongAnswer(s"$what: row $i is ${g.mkString("[", ",", "]")}, expected ${w.mkString("[", ",", "]")}")
    }
  }
}

object Json {
  def esc(s: String): String = s.flatMap {
    case '"' => "\\\""
    case '\\' => "\\\\"
    case c if c < ' ' => f"\\u${c.toInt}%04x"
    case c => c.toString
  }
  def num(x: Double): String =
    if (x.isNaN || x.isInfinite) "null" else java.lang.Double.toString(x)
}
