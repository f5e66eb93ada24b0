"""How long might a customer wait, at worst?

Single-server maximum waits have exact Gumbel asymptotics; for two or more
servers only simulation is available. This script reproduces the striking
split: splitting one fast server into c slow ones (lambda = 1/3, mu = 1/(2c))
makes the worst-case *system* wait worse while making the worst-case *queue*
wait better — and the same direction holds for plain average queue waits.

Run:  python demos/wait_time_extremes.py   (about five seconds)
"""
from queuemax import (MMSimConfig, expected_max_wait_mm1, mean_wait,
                      replicate_wait_maxima, validate_mm_params)

HORIZON = 20_000.0
REPS = 400

print(f"interval [0, {HORIZON:.0f}], {REPS} replications per configuration\n")

print("== single server: theory vs simulation ==")
single = validate_mm_params(1 / 3, 1 / 2, 1)
run = replicate_wait_maxima(MMSimConfig(single, HORIZON, REPS, seed=1))
for kind, sim in (("system", run.max_sys), ("queue", run.max_que)):
    predicted = expected_max_wait_mm1(single, kind, HORIZON)
    print(f"E(max W_{kind:<6}) predicted {predicted:7.3f}   "
          f"simulated {sim.mean:7.3f} +- {sim.se:.3f}")

print("\n== splitting the server: c slow servers with mu = 1/(2c) ==")
print(" c   E(max W_sys)    E(max W_que)    mean W_que (sim)   mean W_que (exact)")
for c in (1, 2, 3):
    params = validate_mm_params(1 / 3, 1 / (2 * c), c)
    run = replicate_wait_maxima(MMSimConfig(params, HORIZON, REPS, seed=c))
    exact = mean_wait(params, "queue")
    print(f" {c}   {run.max_sys.mean:7.2f} +-{run.max_sys.se:4.2f}   "
          f"{run.max_que.mean:7.2f} +-{run.max_que.se:4.2f}   "
          f"{run.pooled_mean_que:12.4f}   {exact:15.4f}")

print("\nworst system wait grows with c; worst queue wait (and its mean) shrink")
