package perfbench

import scala.collection.mutable
import scala.util.Random
import org.apache.spark.sql.SparkSession
import repro.core.{AutoTuner, Predictor, RequestFilter}
import repro.engine._
import repro.engine.Data.Row
import repro.queries.{Queries, QueryCase, Tpch}

/** One generated op: a suite query at an initial DOP under a random tuning
  * schedule, vetted by a `RequestFilter` or by `AcceptAll`, optionally with an
  * auto-tuner chasing per-scan deadlines.
  */
final case class FuzzSpec(index: Int, qc: QueryCase, stageDop: Int, taskDop: Int,
                          actions: Vector[TuningAction], filtered: Boolean,
                          deadlines: Option[Map[Int, Double]]) {
  def deadline: Option[Double] = deadlines.map(_.values.max)

  def describe(seed: Long): String = {
    val tuner = deadlines.fold("none")(d =>
      d.toSeq.sorted.map { case (s, t) => s"S$s<=$t" }.mkString("AutoTuner(", ",", ")"))
    s"seed=$seed op=$index query=${qc.name} dop=($stageDop,$taskDop) " +
      s"gate=${if (filtered) "RequestFilter" else "AcceptAll"} actions=${actions.mkString("[", ",", "]")} tuner=$tuner"
  }
}

/** Differential fuzzing of runtime tuning: every op's rows must equal the
  * untuned run of the same plan at the same initial DOP. Each query of
  * `Queries.suite` gets `perQuery` ops whose initial stage and task DOPs run
  * through permutations of 1..4 in blocks of four; half of them are gated by
  * the request filter and a quarter auto-tuned. The mix of work in a pass thus
  * barely depends on the seed, while the schedules do. Runs are tens of ticks, so the per-run fixed cost
  * (planning, `QueryExec` set-up, task spawn/close, rebuilds, request vetting)
  * is most of the work.
  */
final class FuzzWorkload(seed: Long, sf: Double, perQuery: Int) extends Workload {
  private val costs = CostModel.forTests
  private val tick = costs.tickSeconds
  /** Tuner period: about a tenth of a typical run, so the tuner acts. */
  private val tunerPeriod = 0.25
  private val maxDop = 8

  private final case class Ref(rows: Vector[Row], duration: Double)

  private var tpch: Tpch = _
  private var specs: Vector[FuzzSpec] = _
  private var refs: Map[(String, Int, Int), Ref] = _

  private def untuned(qc: QueryCase, s: Int, t: Int): Ref = {
    val plan = Planner.plan(qc.plan(tpch), shuffleStageFor = qc.shuffleStageFor)
    val res = Trace.span("engine")(new Simulator(new QueryExec(plan, Cluster.default(costs), costs, s, t)).run())
    Ref(Answers.canon(res.rows), res.duration)
  }

  def setup(spark: SparkSession): SetupStats = {
    val t0 = System.nanoTime()
    tpch = Workload.loadTpch(spark, sf)
    val dataSeconds = (System.nanoTime() - t0) / 1e9
    val rng = new Random(seed)
    val cache = mutable.LinkedHashMap[(String, Int, Int), Ref]()
    def ref(qc: QueryCase, s: Int, t: Int) = cache.getOrElseUpdate((qc.name, s, t), untuned(qc, s, t))
    specs = Queries.suite.flatMap { qc =>
      val plan = Planner.plan(qc.plan(tpch), shuffleStageFor = qc.shuffleStageFor)
      val tunable = plan.stages.map(_.id).filter(_ != 0)
      val dops = Vector.fill((perQuery + 3) / 4) {
        rng.shuffle((1 to 4).toVector).zip(rng.shuffle((1 to 4).toVector))
      }.flatten
      val filtered = rng.shuffle(Vector.tabulate(perQuery)(_ % 2 == 0))
      val tuned = rng.shuffle(Vector.tabulate(perQuery)(_ % 4 == 0))
      (0 until perQuery).map { k =>
        val (s, t) = dops(k)
        val base = ref(qc, s, t)
        val actions = Vector.fill(1 + rng.nextInt(4)) {
          val sid = tunable(rng.nextInt(tunable.size))
          val at = rng.nextDouble() * base.duration
          val to = 1 + rng.nextInt(maxDop)
          if (rng.nextBoolean()) SetTaskDop(at, sid, to) else SetStageDop(at, sid, to)
        }
        val deadlines = if (!tuned(k)) None else {
          val fastest = ref(qc, maxDop, maxDop).duration
          val (lo, hi) = (math.min(fastest, base.duration), math.max(fastest, base.duration))
          Some(plan.scanStages.map(sc => sc.id -> (lo + rng.nextDouble() * (hi - lo))).toMap)
        }
        FuzzSpec(0, qc, s, t, actions, filtered(k), deadlines)
      }
    }.zipWithIndex.map { case (sp, i) => sp.copy(index = i) }
    refs = cache.toMap
    SetupStats(dataSeconds, Workload.rowsOf(tpch))
  }

  /** Untuned runs of one query at different initial DOPs must agree. */
  override def validations(spark: SparkSession): Vector[Op] =
    refs.groupBy(_._1._1).toVector.sortBy(_._1).map { case (name, rs) =>
      Op(s"fuzz.untuned.$name", s"untuned $name at DOPs ${rs.keys.map(k => (k._2, k._3)).toSeq.sorted.mkString(",")}",
        () => Vector.empty, _ => {
          val all = rs.toVector.sortBy(_._1)
          all.tail.foreach { case (k, r) => Answers.expectSame(s"$name untuned at $k", r.rows, all.head._2.rows) }
        })
    }

  override def notes: Vector[String] = {
    val md = java.security.MessageDigest.getInstance("SHA-256")
    specs.foreach(s => md.update((s.describe(seed) + "\n").getBytes("UTF-8")))
    Vector(s"schedule digest ${md.digest().map("%02x".format(_)).mkString.take(16)} (${specs.size} ops)")
  }

  private def run(sp: FuzzSpec): RunRecord = {
    val plan = Trace.span("plan") {
      Tally.add("plan.calls", 1)
      Planner.plan(sp.qc.plan(tpch), shuffleStageFor = sp.qc.shuffleStageFor)
    }
    val gate = new GateProbe
    val tuner = sp.deadlines.map(d => new AutoTuner(d, period = tunerPeriod))
    val hook = tuner.map(new HookProbe(_))
    // generous for any slowdown a schedule can cause, short enough that a
    // run which never finishes costs about as much host time as a few others
    val maxTime = 1.0 + 20 * refs((sp.qc.name, sp.stageDop, sp.taskDop)).duration
    val res = Trace.span("engine") {
      val qe = new QueryExec(plan, Cluster.default(costs), costs, sp.stageDop, sp.taskDop)
      val sim = new Simulator(qe, sp.actions, gate, hook, maxTime)
      if (sp.filtered) gate.inner = new RequestFilter(new Predictor(qe, sim.collector))
      sim.run()
    }
    hook.foreach(h => Tally.add("core.steps", h.steps))
    RunRecord.of(s"fuzz#${sp.index}.${sp.qc.name}", res, tick, gateLog = gate.log.toSeq,
      decisions = tuner.map(_.decisions.toSeq).getOrElse(Nil), deadline = sp.deadline)
  }

  def ops: Vector[Op] = specs.map { sp =>
    val want = refs((sp.qc.name, sp.stageDop, sp.taskDop)).rows
    Op(s"fuzz#${sp.index}", sp.describe(seed), () => Vector(run(sp)),
      recs => recs.foreach(r => Answers.expectSame(r.label, r.rows, want)))
  }
}
