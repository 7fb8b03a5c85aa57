# Worst-case input for the subset construction: the classical
# "nth symbol from the end is an a" guessing automaton, n = 24.
# The system itself has only n+1 states, but determinizing its prefix
# language needs 2^24 subset states. `rlcheck check` never determinizes
# it: the lazy antichain search decides '[]<>a' in 26 expansions and the
# whole check charges ~18.6k states. The determinizing kernels behind
# `abstract` and `simplicity` still pay the blow-up, so use it to exercise
# their --timeout / --max-states budgets, and `check`'s with a tight cap:
#
#   rlcheck check examples/systems/needle24.ts '[]<>a' --max-states 10000 --timeout 5
#   rlcheck simplicity examples/systems/needle24.ts --keep a --max-states 5000 --timeout 5
#
system
alphabet: a b
initial: s0
s0 a -> s0
s0 b -> s0
s0 a -> c1   # guess: this a is 24th from the end of the window
c1 a -> c2
c1 b -> c2
c2 a -> c3
c2 b -> c3
c3 a -> c4
c3 b -> c4
c4 a -> c5
c4 b -> c5
c5 a -> c6
c5 b -> c6
c6 a -> c7
c6 b -> c7
c7 a -> c8
c7 b -> c8
c8 a -> c9
c8 b -> c9
c9 a -> c10
c9 b -> c10
c10 a -> c11
c10 b -> c11
c11 a -> c12
c11 b -> c12
c12 a -> c13
c12 b -> c13
c13 a -> c14
c13 b -> c14
c14 a -> c15
c14 b -> c15
c15 a -> c16
c15 b -> c16
c16 a -> c17
c16 b -> c17
c17 a -> c18
c17 b -> c18
c18 a -> c19
c18 b -> c19
c19 a -> c20
c19 b -> c20
c20 a -> c21
c20 b -> c21
c21 a -> c22
c21 b -> c22
c22 a -> c23
c22 b -> c23
c23 a -> c24
c23 b -> c24
c24 a -> s0
c24 b -> s0
c24 a -> c1
