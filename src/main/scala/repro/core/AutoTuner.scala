package repro.core

import scala.collection.mutable
import repro.engine._

/** The DOP auto-tuner (§5.4), in DOP-monitor mode: periodically tracks the
  * execution progress of each constrained stage and incrementally adjusts DOP
  * to meet the query's latency constraints while minimizing resource usage.
  *
  * A constraint maps a stage id to an absolute virtual-time deadline by which
  * that stage's driving table scan must finish (the paper constrains the scan
  * stages of each "DOP tuning unit"). Each period the tuner compares
  * `T_remain = V_remain / R_consume` with the time left:
  *
  *  - behind schedule → raise parallelism of the unit's tunable stage: first
  *    intra-task DOP (cheap, scheduling-only), then intra-stage DOP (join DOP
  *    switch, vetted by the request filter so un-amortizable rebuilds are
  *    rejected);
  *  - well ahead of schedule → reduce intra-task DOP ("RP": scheduling-only,
  *    §6.5.2) to release resources.
  *
  * Deadlines can be changed mid-query (`setDeadline`), mirroring the paper's
  * Q3 experiment where a new constraint arrives via the UI at ~150 s.
  */
final class AutoTuner(
    initialDeadlines: Map[Int, Double],
    period: Double = 5.0,
    maxTaskDop: Int = 8,
    maxStageDop: Int = 10,
    aheadFactor: Double = 0.55,
    behindFactor: Double = 1.05,
) extends TunerHook {

  private val deadlines = mutable.LinkedHashMap[Int, Double](initialDeadlines.toSeq: _*)
  private var lastAct = -1e18
  private var predictor: Predictor = _
  private var filter: RequestFilter = _

  /** Log of (time, message) decisions, for experiments and tests. */
  val decisions = mutable.ArrayBuffer[(Double, String)]()

  def setDeadline(stageId: Int, deadline: Double): Unit = deadlines(stageId) = deadline

  def step(now: Double, qe: QueryExec, sched: DynamicScheduler): Unit = {
    if (predictor == null) {
      predictor = new Predictor(qe, qe.collector)
      filter = new RequestFilter(predictor)
    }
    if (now - lastAct < period) return
    lastAct = now

    deadlines.foreach { case (sid, deadline) =>
      val stage = qe.stage(sid)
      val scan = predictor.scanStageFor(sid)
      if (!stage.completed && scan.exists(!_.completed)) {
        predictor.remainingSeconds(sid) match {
          case None => () // no consumption rate measured yet
          case Some(tRemain) =>
            val timeLeft = math.max(deadline - now, 1e-3)
            targetFor(qe, sid).foreach { t =>
              if (tRemain > timeLeft * behindFactor) {
                speedUp(qe, sched, t, tRemain, timeLeft, now)
                // the unit's scan may itself be the floor — its pipeline is
                // stateless, so raising its driver count is scheduling-only
                scan.foreach(s => speedUp(qe, sched, s, tRemain, timeLeft, now))
              } else if (tRemain < timeLeft * aheadFactor) {
                slowDown(qe, sched, t, tRemain, timeLeft, now)
                scan.foreach(s => slowDown(qe, sched, s, tRemain, timeLeft, now))
              }
            }
        }
      }
    }
  }

  /** The stage whose DOP this unit tunes: the constrained stage itself if
    * tunable, else the nearest tunable ancestor (join preferred over shuffle).
    */
  private def targetFor(qe: QueryExec, sid: Int): Option[StageExec] = {
    def ancestors(id: Int): List[StageExec] = qe.plan.parentOf(id) match {
      case Some(pid) => qe.stage(pid) :: ancestors(pid)
      case None => Nil
    }
    val s = qe.stage(sid)
    val chain = s :: ancestors(sid)
    val tunable = chain.filter(x => x.tunableKind.isDefined && !x.completed)
    tunable.collectFirst { case j: JoinStageExec => j }.orElse(tunable.headOption)
  }

  /** Vet → apply → record, raises and reductions alike; `from` is the current DOP. */
  private def act(qe: QueryExec, sched: DynamicScheduler, a: TuningAction, from: Int,
                  now: Double): Unit = {
    val line = TuningScript.render(a, from)
    filter.vet(a, qe, now) match {
      case Right(()) =>
        sched.apply(a, now)
        decisions += ((now, s"APPLIED $line"))
      case Left(reason) =>
        decisions += ((now, s"REJECTED $line: $reason"))
    }
  }

  /** Drivers are threads: more of them than the node has cores is waste. */
  private def taskDopCap(t: StageExec): Int = {
    val cores = t.liveTasks.map(_.node.cores).minOption.getOrElse(maxTaskDop)
    math.min(maxTaskDop, cores)
  }

  private def speedUp(qe: QueryExec, sched: DynamicScheduler, t: StageExec,
                      tRemain: Double, timeLeft: Double, now: Double): Unit = {
    val factor = tRemain / timeLeft
    val curTd = t.taskDop
    val cap = taskDopCap(t)
    if (curTd < cap) {
      val newTd = math.min(cap,
        math.max(curTd + 1, math.ceil(curTd * factor).toInt))
      act(qe, sched, SetTaskDop(now, t.id, newTd), curTd, now)
    } else {
      val cur = t match {
        case j: JoinStageExec => Some(j.activeGroup.dop)
        case p: PipeStageExec => Some(p.receivingTasks.size)
        case _ => None
      }
      cur.foreach { c =>
        val newSd = math.min(maxStageDop, math.max(c + 1, math.ceil(c * factor).toInt))
        if (newSd > c) act(qe, sched, SetStageDop(now, t.id, newSd), c, now)
      }
    }
  }

  /** Reduction ("RP", §6.5.2): fewer drivers, scheduling overhead only. */
  private def slowDown(qe: QueryExec, sched: DynamicScheduler, t: StageExec,
                       tRemain: Double, timeLeft: Double, now: Double): Unit = {
    val curTd = t.taskDop
    if (curTd > 1) {
      val newTd = math.max(1, math.ceil(curTd * tRemain / (timeLeft * 0.9)).toInt)
      if (newTd < curTd) act(qe, sched, SetTaskDop(now, t.id, newTd), curTd, now)
    }
  }
}
