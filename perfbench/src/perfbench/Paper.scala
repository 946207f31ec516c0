package perfbench

import scala.util.Random
import org.apache.spark.sql.SparkSession
import repro.engine.{CostModel, Planner, SimResult, TuningAction}
import repro.engine.Data.Row
import repro.experiments.Experiments
import repro.queries.{Queries, Tpch}

/** Every §6 experiment, each call one op, at the EXPERIMENTS.md setting
  * (`CostModel()`, dataScale 1000). Long runs of about 10^4 ticks move about
  * 10^6 rows, so the engine's row path does most of the work; the seed only
  * orders the ops.
  */
final class PaperWorkload(seed: Long, sf: Double) extends Workload {
  private val costs = CostModel()
  private val tick = costs.tickSeconds

  private var tpch: Tpch = _
  private var shuf: Tpch = _
  private var q3Rows: Vector[Row] = _
  private var q2jRows: Vector[Row] = _
  private var shufRows: Vector[Row] = _
  private var q3Static32: Double = _

  def setup(spark: SparkSession): SetupStats = {
    val t0 = System.nanoTime()
    tpch = Workload.loadTpch(spark, sf)
    shuf = Trace.span("data.load")(Experiments.shuffleTables(spark, sf))
    val dataSeconds = (System.nanoTime() - t0) / 1e9
    val q3 = Trace.span("engine")(Experiments.q3Static(tpch, costs, 3, 2))
    q3Static32 = q3.duration
    q3Rows = Answers.canon(q3.rows)
    q2jRows = Answers.canon(Trace.span("engine")(Experiments.q2jStatic(tpch, costs, 2)).rows)
    shufRows = Answers.canon(Trace.span("engine")(Experiments.shuffleBaseline(shuf, costs))._1.rows)
    SetupStats(dataSeconds, Workload.rowsOf(tpch) + Workload.rowsOf(shuf))
  }

  override def validations(spark: SparkSession): Vector[Op] = Vector(
    Workload.sparkSqlCheck(spark, "q3", tpch, Queries.q3DuckSql, q3Rows),
    Workload.sparkSqlCheck(spark, "q2j", tpch, Queries.q2jDuckSql, q2jRows),
    Workload.sparkSqlCheck(spark, "qshuffle", shuf, Queries.qShuffleDuckSql, shufRows),
  )

  private def rec(label: String, r: SimResult, script: Seq[(Double, TuningAction, Either[String, Unit])] = Nil,
                  decisions: Seq[(Double, String)] = Nil, deadline: Option[Double] = None) =
    RunRecord.of(label, r, tick, script = script, decisions = decisions, deadline = deadline)

  private def op(id: String, want: => Vector[Row])(body: => RunRecord): Op =
    Op(id, id, () => Vector(Trace.span("engine")(body)),
      recs => recs.foreach(r => Answers.expectSame(id, r.rows, want)))

  def ops: Vector[Op] = {
    val q3Static = Seq((1, 1), (2, 2), (4, 4), (3, 2), (8, 8)).map { case (s, t) =>
      op(s"q3.static($s,$t)", q3Rows)(rec(s"q3.static($s,$t)", Experiments.q3Static(tpch, costs, s, t)))
    }
    val shuffleSweep = Seq(2, 6, 10).map { d =>
      op(s"qshuffle.static($d)", shufRows) {
        val plan = Trace.span("plan") {
          Tally.add("plan.calls", 1)
          Planner.plan(Queries.qShufflePlan(shuf), shuffleStageFor = Set("orders"))
        }
        val join = Experiments.joinAboveScan(plan, "orders")
        val stage = Experiments.shuffleStageId(plan)
        rec(s"qshuffle.static($d)", Experiments.run(plan, costs, 1, 2, overrides = Map(join -> 10, stage -> d)))
      }
    }
    val autoTune = Seq(0.75, 5.0).map { f =>
      op(s"q3.autotune(${f}x)", q3Rows) {
        val deadline = q3Static32 * f
        val (r, tuner, _) = Experiments.q3AutoTune(tpch, costs, deadline)
        rec(s"q3.autotune(${f}x)", r, decisions = tuner.decisions.toSeq, deadline = Some(deadline))
      }
    }
    val all = q3Static ++ Seq(
      op("q3.intra_task", q3Rows) {
        val (r, s, _) = Experiments.q3IntraTask(tpch, costs); rec("q3.intra_task", r, script = s.log.toSeq)
      },
      op("q3.intra_stage", q3Rows) {
        val (r, s, _) = Experiments.q3IntraStage(tpch, costs); rec("q3.intra_stage", r, script = s.log.toSeq)
      },
      op("q2j.static(2)", q2jRows)(rec("q2j.static(2)", Experiments.q2jStatic(tpch, costs, 2))),
      op("q2j.switch", q2jRows) {
        val (r, s, _) = Experiments.q2jSwitch(tpch, costs); rec("q2j.switch", r, script = s.log.toSeq)
      },
      op("qshuffle.baseline", shufRows)(rec("qshuffle.baseline", Experiments.shuffleBaseline(shuf, costs)._1)),
      op("qshuffle.elastic", shufRows) {
        val (r, s, _) = Experiments.shuffleElastic(shuf, costs); rec("qshuffle.elastic", r, script = s.log.toSeq)
      },
      op("q3.prediction", q3Rows) {
        val (r, checks) = Experiments.q3Prediction(tpch, costs)
        checks.foreach(c => Tally.max("core.whatif_err_max", c.errorFrac))
        rec("q3.prediction", r, decisions = checks.map(c => (c.atTime,
          s"APPLIED S${c.stageId}->${c.toDop} predicted_finish=${c.predictedFinish} actual_finish=${c.actualFinish}")))
      },
    ) ++ shuffleSweep ++ autoTune
    new Random(seed).shuffle(all.toVector)
  }
}
