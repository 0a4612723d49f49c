"""The headline experiment: five criteria, one third of the network gone.

Trains the 3x1000 MLP on 4-class Gaussian blobs until it is confident on
every sample, then removes 1000 of the 3000 hidden neurons under each
criterion -- with no fine-tuning -- and compares the damage.

On a confidently-fit model, loss gradients at the hidden layers are
numerical noise (the loss is already ~0), so gradient and Taylor ranking
degenerate into a lottery whose losers can be whole concentrations of
useful neurons. Activation-energy (nuclear-norm) scores keep working
because they read the forward signal, not the vanishing backward one.

Run:  python3 demos/03_criterion_comparison.py   (about 20 seconds)
"""

from energyprune.experiments import (TOY_REPORT_HEADER, run_toy_experiment,
                                     toy_experiment_report)
from energyprune.modelio import format_table

result = run_toy_experiment(seed=0)
print(format_table(TOY_REPORT_HEADER, toy_experiment_report(result)))
print()
print("Drops for gradient/taylor vary by seed (a noise lottery can get")
print("lucky), so the quantitative claim is about the median over seeds;")
print("see the acceptance tests for the five-seed version.")
