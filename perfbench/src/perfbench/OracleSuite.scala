package perfbench

import scala.util.Random
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.Oracle
import repro.engine._
import repro.queries.{Queries, QueryCase, Tpch}
import repro.sparkbridge.SparkTables

/** The 14 `Queries.suite` queries plus the mid-probe DOP switch check on q2j,
  * each engine answer converted with `SparkTables.toDf` and checked by
  * `Oracle.assertEquivalent`; each check is one op. Loading the input tables
  * into DuckDB is almost all of a pass and the engine well under 1%. The seed
  * only orders the checks.
  */
final class OracleWorkload(seed: Long, sf: Double) extends Workload {
  private val costs = CostModel.forTests
  private var spark: SparkSession = _
  private var tpch: Tpch = _

  def setup(spark: SparkSession): SetupStats = {
    this.spark = spark
    val t0 = System.nanoTime()
    tpch = Workload.loadTpch(spark, sf)
    SetupStats((System.nanoTime() - t0) / 1e9, Workload.rowsOf(tpch))
  }

  private def rowsLoaded(tables: Seq[(String, DataFrame)]): Long = {
    val n = Map("lineitem" -> tpch.lineitem, "orders" -> tpch.orders,
      "customer" -> tpch.customer, "part" -> tpch.part)
    tables.map { case (name, _) => n(name).rowCount }.sum
  }

  /** Runs `qe` to the end and checks its answer against DuckDB over `tables`. */
  private def checked(label: String, c: CostModel, qe: => QueryExec, script: Seq[TuningAction],
                      sql: String, tables: Seq[(String, DataFrame)]): RunRecord = {
    val res = Trace.span("engine")(new Simulator(qe, script).run())
    val df = Trace.span("bridge.todf")(SparkTables.toDf(spark, res.schema, res.rows))
    Tally.add("bridge.rows", res.rows.size)
    Trace.span("oracle.check")(Oracle.assertEquivalent(df, sql, tables: _*))
    Tally.add("oracle.checks", 1)
    Tally.add("oracle.rows_loaded", rowsLoaded(tables))
    RunRecord.of(label, res, c.tickSeconds)
  }

  private def plan(qc: QueryCase): QueryPlan = Trace.span("plan") {
    Tally.add("plan.calls", 1)
    Planner.plan(qc.plan(tpch), shuffleStageFor = qc.shuffleStageFor)
  }

  def ops: Vector[Op] = {
    val suite = Queries.suite.map { qc =>
      Op(s"oracle.${qc.name}", s"${qc.name} at stage/task DOP (2,2)", () => {
        val p = plan(qc)
        Vector(checked(qc.name, costs, new QueryExec(p, Cluster.default(costs), costs, 2, 2), Nil,
          qc.duckSql, tpch.dfs))
      })
    }
    // The switch must fire mid-probe, after the build side (the orders scan)
    // has fully streamed in: slow the clock as the equivalence test does, in
    // proportion to the scale factor.
    val q2j = Queries.suite.find(_.name == "q2j").get
    val slow = costs.copy(dataScale = 150.0 * 0.004 / sf)
    val switch = Op("oracle.q2j_switch", "q2j at (2,1), SetStageDop(4.5, join, 4), dataScale slowed", () => {
      val p = plan(q2j)
      val rec = checked("q2j_switch", slow, new QueryExec(p, Cluster.default(slow), slow, 2, 1),
        Seq(SetStageDop(4.5, p.joinStages.head.id, 4)), q2j.duckSql,
        Seq("lineitem" -> tpch.lineitemDf, "orders" -> tpch.ordersDf))
      if (rec.switches.isEmpty) throw new WrongAnswer("q2j_switch: the DOP switch did not fire mid-run")
      Vector(rec)
    })
    new Random(seed).shuffle(suite :+ switch)
  }
}
