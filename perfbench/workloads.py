"""The benchmark's fixed workloads: one pinned ``pv5lab`` argv each.

Every flag is given explicitly, including those equal to today's defaults,
so that a later change of a default cannot change a workload.  The
benchmark seed becomes ``--seed`` (it picks the z samples) on the two
``verify`` workloads; ``trajectory`` takes no random input and is seed-free.
"""

from dataclasses import dataclass

#: flags every workload shares
COMMON = ("--alpha", "1", "--bits", "256", "--rel-tol", "1e-40", "--max-level", "12")

#: the seed the stored reference outputs were captured at
REFERENCE_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    args: tuple
    output: str  # file suffix: "json" (a verify report) or "csv" (an ode trajectory)
    seeded: bool

    def argv(self, seed, out_path):
        """The pv5lab argv for one invocation writing its output to out_path."""
        flag = "--out-json" if self.output == "json" else "--out-csv"
        # trajectory pins --seed 0 with the other flags; it has no random input
        seed_args = ("--seed", str(seed)) if self.seeded else ("--seed", "0")
        return [*self.args, *COMMON, *seed_args, flag, str(out_path)]

    def flag(self, name):
        """The value this workload pins for a flag, as given on the command line."""
        argv = [*self.args, *COMMON]
        return argv[argv.index(name) + 1]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "certify",
            "README certification run: one weight table read many times, so "
            "ladder integrals and table reads dominate; bypasses sharing across t",
            ("verify", "--suite", "required", "--k2", "0.25", "--t", "0.5",
             "--n-max", "8", "--z-count", "20"),
            "json", True),
        Workload(
            "t-sweep",
            "README diagnostic sweep cut to 2 t points: 10 tables built, so table "
            "fill, Stieltjes passes and ladder.compute dominate",
            ("verify", "--suite", "all", "--k2", "0.09", "--n-max", "4",
             "--t-start", "0.05", "--t-stop", "1.0", "--t-count", "2",
             "--t-spacing", "log", "--z-count", "20"),
            "json", True),
        Workload(
            "trajectory",
            "coupled-pair ODE at tol 1e-18: the Cash-Karp integrator dominates and "
            "quadrature builds one small table; seed-free",
            ("ode", "--k2", "0.04", "--n", "2", "--n-max", "2", "--t0", "0.5",
             "--t1", "0.54", "--ode-tol", "1e-18", "--samples", "9"),
            "csv", False),
    )
}
