package repro.engine

import org.scalatest.funsuite.AnyFunSuite
import repro.engine.Dsl._
import repro.engine.TestRig._

class SimulatorSpec extends AnyFunSuite {
  private val c = CostModel.forTests.copy(dataScale = 400.0)
  private val items = itemsT(100, 4)

  test("simulator refuses to run past maxVirtualSeconds with a clear dump") {
    val plan = Planner.plan(agg(scan(items), Nil, count("cnt")))
    val qe = new QueryExec(plan, cluster(c), c, 1, 1)
    val e = intercept[IllegalStateException] {
      new Simulator(qe, maxVirtualSeconds = 0.1).run()
    }
    assert(e.getMessage.contains("did not finish"))
    assert(e.getMessage.contains("scan(items)")) // the dump names stages
  }

  test("init() can only run once per QueryExec") {
    val plan = Planner.plan(agg(scan(items), Nil, count("cnt")))
    val qe = new QueryExec(plan, cluster(c), c, 1, 1)
    qe.init()
    intercept[IllegalArgumentException](qe.init())
  }

  test("rejected script actions via a gate are logged, accepted ones applied") {
    val plan = Planner.plan(agg(scan(items), Nil, count("cnt")))
    val scanId = plan.scanStages.head.id
    val rejectEven = new RequestGate {
      def vet(a: TuningAction, qe: QueryExec, now: Double): Either[String, Unit] =
        if (a.to % 2 == 0) Left("even DOPs are unlucky") else Right(())
    }
    val slow = c.copy(dataScale = 4000.0) // keep the query alive past both actions
    val qe = new QueryExec(plan, cluster(slow), slow, 1, 1)
    val res = new Simulator(qe,
      script = Seq(SetTaskDop(0.2, scanId, 2), SetTaskDop(0.3, scanId, 3)),
      gate = rejectEven).run()
    assert(res.requestLog.exists(_._2.contains("REJECTED")))
    assert(res.requestLog.exists(_._2.startsWith(s"AC S$scanId")))
  }

  test("allocated driver-seconds grow with held parallelism") {
    val plan = Planner.plan(agg(scan(items), Nil, count("cnt")))
    val lean = new Simulator(new QueryExec(plan, cluster(c), c, 1, 1)).run()
    val fat = new Simulator(new QueryExec(plan, cluster(c), c, 1, 4)).run()
    assert(lean.allocatedDriverSeconds > 0)
    assert(fat.allocatedDriverSeconds / fat.duration >
      lean.allocatedDriverSeconds / lean.duration)
  }

  test("the simulator samples the query's own collector") {
    val plan = Planner.plan(agg(scan(items), Nil, count("cnt")))
    val qe = new QueryExec(plan, cluster(c), c, 1, 1)
    val sim = new Simulator(qe)
    val res = sim.run()
    assert(sim.collector eq qe.collector)
    assert(res.collector eq qe.collector)
  }

  test("collector samples once per virtual second, plus one at the end") {
    val slow = c.copy(dataScale = 20000.0) // several virtual seconds
    val plan = Planner.plan(agg(scan(items), Nil, count("cnt")))
    val qe = new QueryExec(plan, cluster(slow), slow, 1, 1)
    val res = new Simulator(qe).run()
    val times = qe.collector.samples.map(_.t).toVector
    assert(times.head == 0.0)
    assert(times.last == res.duration)
    assert(times.size >= 4)
    val gaps = times.zip(times.tail).map { case (a, b) => b - a }
    assert(gaps.forall(_ > 0), s"sample times not strictly increasing: $times")
    assert(gaps.init.forall(g => g >= 1.0 && g < 1.0 + slow.tickSeconds + 1e-9), s"times: $times")
  }

  test("a hook at a 1 s mark reads a sample taken at now") {
    val slow = c.copy(dataScale = 20000.0)
    val plan = Planner.plan(agg(scan(items), Nil, count("cnt")))
    val qe = new QueryExec(plan, cluster(slow), slow, 1, 1)
    val fresh = scala.collection.mutable.ArrayBuffer[Double]()
    val hook = new TunerHook {
      def step(now: Double, q: QueryExec, sched: DynamicScheduler): Unit = {
        val last = q.collector.samples.last
        assert(now - last.t < 1.0) // never more than a second stale
        if (last.t == now) fresh += now
      }
    }
    new Simulator(qe, tuner = Some(hook)).run()
    // every sample but the final one was taken at a tick the hook saw
    assert(fresh.toVector == qe.collector.samples.map(_.t).toVector.init)
  }

  test("progress signature is monotone over a run") {
    val plan = Planner.plan(agg(scan(items), Nil, count("cnt")))
    val qe = new QueryExec(plan, cluster(c), c, 1, 1)
    var last = -1L
    val hook = new TunerHook {
      def step(now: Double, q: QueryExec, sched: DynamicScheduler): Unit = {
        val sig = q.progressSignature
        assert(sig >= last)
        last = sig
      }
    }
    new Simulator(qe, tuner = Some(hook)).run()
    assert(last > 0)
  }
}
