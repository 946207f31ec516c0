package repro.engine

import scala.collection.mutable.ArrayBuffer

/** A runtime parallelism-tuning request. `at` is the virtual time the request
  * fires (for scripted experiments); `to` is the requested DOP.
  */
sealed trait TuningAction {
  def at: Double
  def stageId: Int
  def to: Int
}

/** Intra-task tuning (§4.3): set the driver count of the stage's tunable
  * pipeline in every live task ("AC Sn,a,b" in the paper's notation).
  */
final case class SetTaskDop(at: Double, stageId: Int, to: Int) extends TuningAction

/** Intra-stage tuning (§4.4/§4.5): set the task count of the stage
  * ("AP"/"RP" Sn,a,b). Joins go through DOP switching; shuffle stages
  * add/remove tasks directly.
  */
final case class SetStageDop(at: Double, stageId: Int, to: Int) extends TuningAction

/** Vet a tuning request before it reaches the dynamic scheduler. The paper's
  * DOP tuning request filter (§5.2) lives in `repro.core`; AcceptAll is used
  * by scripted experiments that bypass filtering.
  */
trait RequestGate {
  def vet(a: TuningAction, qe: QueryExec, now: Double): Either[String, Unit]
}

object AcceptAll extends RequestGate {
  def vet(a: TuningAction, qe: QueryExec, now: Double): Either[String, Unit] = Right(())
}

/** Auto-tuner hook invoked once per tick by the simulator (§5.4). */
trait TunerHook {
  def step(now: Double, qe: QueryExec, sched: DynamicScheduler): Unit
}

/** The dynamic scheduler (§3): spawns/terminates drivers and tasks at runtime,
  * breaking Presto's early binding of stage and task DOP.
  */
final class DynamicScheduler(val qe: QueryExec) {
  val log = ArrayBuffer[(Double, String)]()

  def note(now: Double, msg: String): Unit = log += ((now, msg))

  /** Intra-task DOP: adjust driver count of the tunable pipeline per task. */
  def setTaskDop(stageId: Int, to: Int, now: Double): Unit = {
    val s = qe.stage(stageId)
    s.tunableKind match {
      case None => note(now, s"IGNORED task-DOP S$stageId: no tunable pipeline")
      case Some(kind) =>
        val target = math.max(1, to)
        s.liveTasks.foreach { t =>
          t.pipeline(kind).foreach { p =>
            while (p.activeCount < target) p.addDriver(now)
            var more = true
            while (p.activeCount > target && more) more = p.closeOne()
          }
        }
        note(now, s"AC S$stageId -> $target")
    }
  }

  /** Intra-stage DOP: task count of the stage. */
  def setStageDop(stageId: Int, to: Int, now: Double): Unit = qe.stage(stageId) match {
    case j: JoinStageExec if j.joinDef.broadcast =>
      val cur = j.receivingTasks.size
      if (to > cur) {
        j.addBroadcastTasks(to - cur, now)
        note(now, s"AP S$stageId $cur -> $to (broadcast rebuild)")
      } else if (to < cur) {
        var n = cur
        while (n > math.max(1, to) && removeBroadcastTask(j)) n -= 1
        note(now, s"RP S$stageId $cur -> $n")
      } else note(now, s"IGNORED stage-DOP S$stageId: no-op")
    case j: JoinStageExec =>
      val cur = j.activeGroup.dop
      if (j.rebuild.nonEmpty)
        note(now, s"IGNORED stage-DOP S$stageId: rebuild already in flight")
      else if (!j.buildUpstream.completed)
        note(now, s"IGNORED stage-DOP S$stageId: build side still streaming")
      else if (to == cur)
        note(now, s"IGNORED stage-DOP S$stageId: no-op")
      else {
        j.switchDop(math.max(1, to), math.max(1, j.taskDop), now)
        note(now, s"AP S$stageId $cur -> $to (DOP switch)")
      }
    case p: PipeStageExec =>
      val cur = p.receivingTasks.size
      if (to > cur) (cur until to).foreach(_ => p.addTask(now))
      else if (to < cur) (to until cur).foreach(_ => p.removeTask(now))
      note(now, s"${if (to < cur) "RP" else "AP"} S$stageId $cur -> $to")
    case s =>
      note(now, s"IGNORED stage-DOP S$stageId: ${s.kindName} has fixed stage DOP")
  }

  /** End-signal one broadcast-join task: drop it from the probe round-robin
    * and end-mark its queues so it drains and closes.
    */
  private def removeBroadcastTask(j: JoinStageExec): Boolean = {
    val candidates = j.receivingTasks.filter(_.hashReady)
    if (candidates.size <= 1) false
    else {
      val t = candidates.last
      j.probeUpstream.allTasks.foreach { p =>
        t.probeQueues.foreach(q => p.outputBuffer.removeTarget(q))
      }
      t.probeQueues.foreach(_.markEnd())
      t.draining = true
      true
    }
  }

  def apply(a: TuningAction, now: Double): Unit = a match {
    case SetTaskDop(_, sid, to) => setTaskDop(sid, to, now)
    case SetStageDop(_, sid, to) => setStageDop(sid, to, now)
  }
}
