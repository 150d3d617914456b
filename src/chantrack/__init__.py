"""Grid-based tracking of hidden wireless channel state and gain-map prediction.

The hidden channel state (path-loss exponent and shadowing parameters)
evolves as a Markov process; sensors observe correlated log-normal channel
gains in dB.  This package quantizes the state space, estimates the induced
finite-chain transition matrix (by quadrature over the noise law for the
Markovian chain, by Monte Carlo trajectories for the marginal one), runs the
recursive grid filter over observations and predicts the channel gain at
arbitrary spatial points, sequentially and at any prediction horizon.
"""

__version__ = "0.1.0"
