package perfbench

import scala.collection.mutable.ArrayBuffer
import repro.engine.{AcceptAll, DynamicScheduler, QueryExec, RequestGate, TunerHook, TuningAction}

/** Gate the benchmark wraps around the program's own request gate: records
  * and times every `vet` call. `inner` is set once the run's collector
  * exists, since a [[repro.core.RequestFilter]] predicts from it.
  */
final class GateProbe extends RequestGate {
  var inner: RequestGate = AcceptAll
  val log = ArrayBuffer[(Double, TuningAction, Either[String, Unit])]()

  def vet(a: TuningAction, qe: QueryExec, now: Double): Either[String, Unit] = {
    val v = Trace.span("core.vet")(inner.vet(a, qe, now))
    log += ((now, a, v))
    v
  }
}

/** Hook the benchmark wraps around a tuner: counts and times every step. */
final class HookProbe(inner: TunerHook) extends TunerHook {
  var steps = 0

  def step(now: Double, qe: QueryExec, sched: DynamicScheduler): Unit = {
    steps += 1
    Trace.span("core.step")(inner.step(now, qe, sched))
  }
}
