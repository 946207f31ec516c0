package repro.experiments

import scala.collection.mutable
import org.apache.spark.sql.SparkSession
import repro.SynthData
import repro.core.{AutoTuner, Predictor, Prediction, RequestFilter}
import repro.engine._
import repro.queries.{Queries, Tpch}
import repro.sparkbridge.SparkTables

/** A tuning action fired when a scan stage's progress crosses a threshold.
  * Progress-triggered scripts make the experiments robust to cost-model
  * recalibration: the paper's wall-clock-scripted adjustments are expressed as
  * fractions of the probe-side table scan instead.
  */
final case class Trigger(scanStageId: Int, atProgress: Double, action: TuningAction)

/** TunerHook that fires progress triggers through the DOP tuning request
  * filter, recording accepted and rejected requests (§5.2) and the what-if
  * prediction (§5.3) for each accepted stage-DOP change.
  */
final class ProgressScript(triggers: Seq[Trigger]) extends TunerHook {
  private val fired = mutable.Set[Int]()

  /** (time, rendered action, Right(()) or Left(reason)). */
  val log = mutable.ArrayBuffer[(Double, TuningAction, Either[String, Unit])]()

  /** (time, accepted action, prediction taken just before applying it). */
  val predictions = mutable.ArrayBuffer[(Double, SetStageDop, Prediction)]()

  def step(now: Double, qe: QueryExec, sched: DynamicScheduler): Unit = {
    triggers.zipWithIndex.foreach { case (tr, i) =>
      if (!fired(i)) {
        val prog = qe.stage(tr.scanStageId) match {
          case s: ScanStageExec => s.progress
          case _ => 1.0
        }
        if (prog >= tr.atProgress) {
          fired += i
          val predictor = new Predictor(qe, qe.collector)
          val verdict = new RequestFilter(predictor).vet(tr.action, qe, now)
          verdict.foreach { _ =>
            tr.action match {
              case a: SetStageDop => predictor.predict(a.stageId, a.to).foreach(p => predictions += ((now, a, p)))
              case _ => ()
            }
            sched.apply(tr.action, now)
          }
          log += ((now, tr.action, verdict))
        }
      }
    }
  }

  def rejected: Vector[(Double, TuningAction, String)] =
    log.collect { case (t, a, Left(r)) => (t, a, r) }.toVector
  def accepted: Vector[(Double, TuningAction)] =
    log.collect { case (t, a, Right(())) => (t, a) }.toVector
}

/** Shared experiment harness for the jobs/ entrypoints and bench/ suites. */
object Experiments {

  val DataNodes: Vector[Int] = (0 until 10).toVector

  // ------------------------------------------------------------ plan helpers

  /** Scan stage id of `table` in `plan`. */
  def scanIdOf(plan: QueryPlan, table: String): Int =
    plan.scanStages.find(_.table.name == table).map(_.id)
      .getOrElse(throw new IllegalArgumentException(s"no scan of $table"))

  /** The join stage whose probe lineage contains the scan of `table`. */
  def joinAboveScan(plan: QueryPlan, table: String): Int = {
    val sid = scanIdOf(plan, table)
    def probeLineage(j: JoinStageDef): Boolean = {
      def descends(id: Int): Boolean =
        id == sid || (plan.stage(id) match {
          case jj: JoinStageDef => descends(jj.probeStageId)
          case s: ShuffleStageDef => descends(s.childStageId)
          case _ => false
        })
      descends(j.probeStageId)
    }
    plan.joinStages.filter(probeLineage).map(_.id).min
  }

  def shuffleStageId(plan: QueryPlan): Int =
    plan.stages.collectFirst { case s: ShuffleStageDef => s.id }
      .getOrElse(throw new IllegalArgumentException("plan has no shuffle stage"))

  // ------------------------------------------------------------ run plumbing

  def run(plan: QueryPlan, costs: CostModel, stageDop0: Int, taskDop0: Int,
          overrides: Map[Int, Int] = Map.empty,
          script: Seq[TuningAction] = Nil,
          gate: RequestGate = AcceptAll,
          tuner: Option[TunerHook] = None,
          maxTime: Double = 50000.0): SimResult = {
    val qe = new QueryExec(plan, Cluster.default(costs), costs, stageDop0, taskDop0, overrides)
    new Simulator(qe, script, gate, tuner, maxTime).run()
  }

  // ------------------------------------------------------------ Table 1

  final case class Table1Row(table: String, scheme: String, tableBytes: Long, splitBytes: Long) {
    def render: String =
      f"$table%-9s | $scheme%-22s | ${Bytes.human(tableBytes)}%10s | ${Bytes.human(splitBytes)}%10s"
  }

  /** Reproduces Table 1: the TPC-H table setup — partitioning scheme, table
    * size and split size. Sizes are virtual bytes (generated bytes ×
    * dataScale, i.e. SF0.1 data standing in for SF100).
    */
  def table1(spark: SparkSession, sf: Double, costs: CostModel): Vector[Table1Row] = {
    val one = Vector(0)
    val all = DataNodes
    def row(name: String, df: org.apache.spark.sql.DataFrame,
            nodes: Vector[Int], perNode: Int): Table1Row = {
      val t = SparkTables.fromDf(df, name, nodes, perNode)
      val scaled = (t.bytes * costs.dataScale).toLong
      val scheme = s"${nodes.size} node${if (nodes.size > 1) "s" else ""}, $perNode split/node"
      Table1Row(name, scheme, scaled, scaled / math.max(1, t.splits.size))
    }
    Vector(
      row("nation", SynthData.nation(spark), one, 1),
      row("region", SynthData.region(spark), one, 1),
      row("supplier", SynthData.supplier(spark, sf), all, 1),
      row("part", SynthData.part(spark, sf), all, 1),
      row("partsupp", SynthData.partsupp(spark, sf), all, 1),
      row("customer", SynthData.customer(spark, sf), all, 1),
      row("orders", SynthData.orders(spark, sf), all, 1),
      row("lineitem", SynthData.lineitem(spark, sf), all, 7),
    )
  }

  // ------------------------------------------------------------ Q3 (§6.2/§6.3)

  /** Presto-like execution: DOP fixed before execution, no runtime tuning. */
  def q3Static(t: Tpch, costs: CostModel, stageDop: Int, taskDop: Int): SimResult =
    run(Planner.plan(Queries.q3Plan(t)), costs, stageDop, taskDop)

  /** Intra-task runtime tuning (§6.2): start at stage/task DOP 1; raise the
    * driver counts of both join stages as the probe scans progress (the
    * paper's "AC Sn,a,b" adjustments).
    */
  def q3IntraTask(t: Tpch, costs: CostModel): (SimResult, ProgressScript, QueryPlan) = {
    val plan = Planner.plan(Queries.q3Plan(t))
    val sOrders = scanIdOf(plan, "orders")
    val sLineitem = scanIdOf(plan, "lineitem")
    val jMid = joinAboveScan(plan, "orders")
    val jTop = joinAboveScan(plan, "lineitem")
    val script = new ProgressScript(Seq(
      Trigger(sOrders, 0.10, SetTaskDop(0, jMid, 2)),
      Trigger(sOrders, 0.30, SetTaskDop(0, jMid, 4)),
      Trigger(sLineitem, 0.05, SetTaskDop(0, jTop, 2)),
      Trigger(sLineitem, 0.20, SetTaskDop(0, jTop, 4)),
      Trigger(sLineitem, 0.50, SetTaskDop(0, jTop, 8)),
    ))
    (run(plan, costs, 1, 1, tuner = Some(script)), script, plan)
  }

  /** Intra-stage runtime tuning (§6.3): DOP switches on both join stages; the
    * last request fires near the end of the probe scan and should be rejected
    * by the filter (T_remain < T_build).
    */
  def q3IntraStage(t: Tpch, costs: CostModel): (SimResult, ProgressScript, QueryPlan) = {
    val plan = Planner.plan(Queries.q3Plan(t))
    val sOrders = scanIdOf(plan, "orders")
    val sLineitem = scanIdOf(plan, "lineitem")
    val jMid = joinAboveScan(plan, "orders")
    val jTop = joinAboveScan(plan, "lineitem")
    val script = new ProgressScript(Seq(
      Trigger(sOrders, 0.10, SetStageDop(0, jMid, 2)),
      Trigger(sOrders, 0.40, SetStageDop(0, jMid, 4)),
      Trigger(sLineitem, 0.05, SetStageDop(0, jTop, 2)),
      Trigger(sLineitem, 0.25, SetStageDop(0, jTop, 4)),
      Trigger(sLineitem, 0.50, SetStageDop(0, jTop, 6)),
      Trigger(sLineitem, 0.995, SetStageDop(0, jTop, 8)), // expect rejection
    ))
    (run(plan, costs, 1, 1, tuner = Some(script)), script, plan)
  }

  // ------------------------------------------------------------ Q2J (§6.4.1, Table 2)

  /** DOP switching for the partitioned hash join: three switches 2→4→6→8 plus
    * a late request the coordinator should reject.
    */
  def q2jSwitch(t: Tpch, costs: CostModel): (SimResult, ProgressScript, QueryPlan) = {
    val plan = Planner.plan(Queries.q2jPlan(t))
    val sLineitem = scanIdOf(plan, "lineitem")
    val join = joinAboveScan(plan, "lineitem")
    val script = new ProgressScript(Seq(
      Trigger(sLineitem, 0.08, SetStageDop(0, join, 4)),
      Trigger(sLineitem, 0.35, SetStageDop(0, join, 6)),
      Trigger(sLineitem, 0.60, SetStageDop(0, join, 8)),
      Trigger(sLineitem, 0.96, SetStageDop(0, join, 10)), // expect rejection
    ))
    (run(plan, costs, 2, 1, tuner = Some(script)), script, plan)
  }

  def q2jStatic(t: Tpch, costs: CostModel, stageDop: Int): SimResult =
    run(Planner.plan(Queries.q2jPlan(t)), costs, stageDop, 1)

  // ------------------------------------------------------------ shuffle stage (§6.4.2)

  /** Load the §6.4.2 setup: orders restricted to two data nodes so its scan
    * tasks' hash-partitioning (shuffle) work bottlenecks the query.
    */
  def shuffleTables(spark: SparkSession, sf: Double): Tpch =
    Queries.loadTpch(spark, sf, DataNodes, ordersNodes = Some(Vector(0, 1)))

  /** Baseline: no shuffle stage; join DOP 10; shuffle work stuck on 2 nodes. */
  def shuffleBaseline(t: Tpch, costs: CostModel): (SimResult, QueryPlan) = {
    val plan = Planner.plan(Queries.qShufflePlan(t))
    val join = joinAboveScan(plan, "orders")
    (run(plan, costs, 1, 2, overrides = Map(join -> 10)), plan)
  }

  /** With an elastic shuffle stage under orders, swept 2→4→6→8 at runtime. */
  def shuffleElastic(t: Tpch, costs: CostModel): (SimResult, ProgressScript, QueryPlan) = {
    val plan = Planner.plan(Queries.qShufflePlan(t), shuffleStageFor = Set("orders"))
    val join = joinAboveScan(plan, "orders")
    val shuffle = shuffleStageId(plan)
    val sOrders = scanIdOf(plan, "orders")
    val script = new ProgressScript(Seq(
      Trigger(sOrders, 0.10, SetStageDop(0, shuffle, 4)),
      Trigger(sOrders, 0.30, SetStageDop(0, shuffle, 6)),
      Trigger(sOrders, 0.50, SetStageDop(0, shuffle, 8)),
    ))
    (run(plan, costs, 1, 2, overrides = Map(join -> 10, shuffle -> 2),
      tuner = Some(script)), script, plan)
  }

  // ------------------------------------------------------------ prediction (§6.5.1)

  final case class PredictionCheck(stageId: Int, atTime: Double, toDop: Int,
                                   prediction: Prediction, predictedFinish: Double,
                                   actualFinish: Double) {
    def errorSeconds: Double = math.abs(predictedFinish - actualFinish)
    def errorFrac: Double = errorSeconds / math.max(1e-9, actualFinish - atTime + 1e-9)
  }

  /** Predict-then-apply, as a progress script: before each accepted DOP
    * switch the what-if service estimates the stage's remaining time at the
    * new DOP; after the run the estimate is compared with the stage's actual
    * completion time (Fig 29's check).
    */
  def q3Prediction(t: Tpch, costs: CostModel): (SimResult, Vector[PredictionCheck]) = {
    val plan = Planner.plan(Queries.q3Plan(t))
    val jMid = joinAboveScan(plan, "orders")
    val jTop = joinAboveScan(plan, "lineitem")
    val script = new ProgressScript(Seq(
      Trigger(scanIdOf(plan, "orders"), 0.25, SetStageDop(0, jMid, 8)),
      Trigger(scanIdOf(plan, "lineitem"), 0.30, SetStageDop(0, jTop, 8)),
    ))
    val qe = new QueryExec(plan, Cluster.default(costs), costs, 2, 3)
    val res = new Simulator(qe, tuner = Some(script)).run()
    val out = script.predictions.toVector.map { case (at, a, pr) =>
      PredictionCheck(a.stageId, at, a.to, pr, at + pr.tPredicted, qe.stage(a.stageId).completedAt)
    }
    (res, out)
  }

  // ------------------------------------------------------------ auto-tuning (§6.5.2)

  /** Run Q3 under the DOP auto-tuner with per-scan-stage deadlines derived
    * from a whole-query latency constraint.
    */
  def q3AutoTune(t: Tpch, costs: CostModel, queryDeadline: Double):
      (SimResult, AutoTuner, QueryPlan) = {
    val plan = Planner.plan(Queries.q3Plan(t))
    val sOrders = scanIdOf(plan, "orders")
    val sLineitem = scanIdOf(plan, "lineitem")
    // the orders-side unit must finish early enough for the lineitem-side unit
    val tuner = new AutoTuner(Map(
      sOrders -> queryDeadline * 0.4,
      sLineitem -> queryDeadline * 0.95,
    ))
    val res = run(plan, costs, 3, 2, tuner = Some(tuner), maxTime = queryDeadline * 10)
    (res, tuner, plan)
  }
}
