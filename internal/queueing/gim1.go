// Package queueing implements the queueing-theoretic machinery of the
// paper: the GI^X/M/1 batch queue that models a Memcached server
// (§3, §4.3). The back-end database is the ρ_D ≈ 0 exponential stage of
// §4.4, which internal/core prices in closed form.
package queueing

import (
	"errors"
	"fmt"
	"math"

	"memqlat/internal/dist"
)

// ErrUnstable is returned when the offered load meets or exceeds
// capacity (ρ >= 1), in which case δ and all latency quantities diverge.
var ErrUnstable = errors.New("queueing: utilization >= 1, queue unstable")

// BatchQueue is the paper's GI^X/M/1 model of one Memcached server:
//
//   - batches arrive with general i.i.d. inter-arrival gaps TX,
//   - each batch carries X keys, X ~ Geometric: P{X=n} = q^{n-1}(1-q),
//   - each key's service time is exponential with rate µ_S.
//
// The geometric sum of exponentials is exponential, so batches are
// served at rate µ_B = (1-q)·µ_S and the system is analyzed as a GI/M/1
// queue on batches (paper §4.3.1).
type BatchQueue struct {
	// Interarrival is the distribution of the gap between batches.
	Interarrival dist.Interarrival
	// Q is the concurrent probability (geometric batch parameter).
	Q float64
	// MuS is the per-key service rate at the server.
	MuS float64

	// delta is the root of eq. 6 for the three parameters above, solved
	// once by NewBatchQueue; every latency law below is a closed form
	// in it.
	delta float64
}

// deltaTol is the absolute tolerance of the eq. 6 root.
const deltaTol = 1e-14

// NewBatchQueue validates the parameters and solves the paper's eq. 6
// (Table 1 form):
//
//	δ = L_TX((1-δ)·(1-q)·µ_S),  δ ∈ (0, 1),
//
// as the root of h(δ) = δ − L_TX((1−δ)µ_B), which is unique in (0, 1)
// for a stable queue: h(0) = −L_TX(µ_B) < 0, and h just below 1 is
// positive exactly when ρ < 1. It returns ErrUnstable when ρ >= 1, or
// when a numerical transform barely misses the sign change near 1.
func NewBatchQueue(interarrival dist.Interarrival, q, muS float64) (*BatchQueue, error) {
	if interarrival == nil {
		return nil, errors.New("queueing: nil interarrival distribution")
	}
	if q < 0 || q >= 1 || math.IsNaN(q) {
		return nil, fmt.Errorf("queueing: concurrent probability q=%v must be in [0, 1)", q)
	}
	if !(muS > 0) {
		return nil, fmt.Errorf("queueing: service rate muS=%v must be positive", muS)
	}
	if !(interarrival.Mean() > 0) {
		return nil, fmt.Errorf("queueing: interarrival mean %v must be positive", interarrival.Mean())
	}
	b := &BatchQueue{Interarrival: interarrival, Q: q, MuS: muS}
	rho := b.Utilization()
	if !(rho < 1) {
		return nil, fmt.Errorf("%w (rho=%.4f)", ErrUnstable, rho)
	}
	muB := b.BatchServiceRate()
	delta, err := FindRoot(func(delta float64) float64 {
		return delta - interarrival.LaplaceTransform((1-delta)*muB)
	}, 0, 1-1e-12, deltaTol)
	if err != nil {
		return nil, fmt.Errorf("%w (no interior root; rho=%.6f)", ErrUnstable, rho)
	}
	b.delta = delta
	return b, nil
}

// BatchServiceRate returns µ_B = (1-q)·µ_S.
func (b *BatchQueue) BatchServiceRate() float64 { return (1 - b.Q) * b.MuS }

// BatchArrivalRate returns 1/E[TX].
func (b *BatchQueue) BatchArrivalRate() float64 { return 1 / b.Interarrival.Mean() }

// KeyArrivalRate returns λ = E[X]/E[TX] = 1/((1-q)·E[TX]).
func (b *BatchQueue) KeyArrivalRate() float64 {
	return b.BatchArrivalRate() / (1 - b.Q)
}

// Utilization returns ρ_S = λ/µ_S (equivalently batch-rate/µ_B), which
// is below 1 for every constructed queue.
func (b *BatchQueue) Utilization() float64 { return b.KeyArrivalRate() / b.MuS }

// Delta returns δ, the root of eq. 6: the probability that an arriving
// batch has to wait.
func (b *BatchQueue) Delta() float64 { return b.delta }

// DecayRate returns (1−δ)(1−q)µ_S, the exponential decay rate shared by
// eqs. 4–5.
func (b *BatchQueue) DecayRate() float64 { return (1 - b.delta) * b.BatchServiceRate() }

// WaitingCDF evaluates the batch queueing-time distribution (eq. 4):
//
//	T_Q(t) = 1 − δ·e^{−(1−δ)(1−q)µ_S·t}.
func (b *BatchQueue) WaitingCDF(t float64) float64 {
	if t < 0 {
		return 0
	}
	return 1 - b.delta*math.Exp(-b.DecayRate()*t)
}

// SojournCDF evaluates the batch completion-time distribution (eq. 5):
//
//	T_C(t) = 1 − e^{−(1−δ)(1−q)µ_S·t}.
func (b *BatchQueue) SojournCDF(t float64) float64 {
	if t < 0 {
		return 0
	}
	return 1 - math.Exp(-b.DecayRate()*t)
}

// WaitingQuantile evaluates eq. 7, the k-th quantile of the batch
// queueing time:
//
//	(T_Q)_k = max{ (ln δ − ln(1−k)) / ((1−δ)(1−q)µ_S), 0 }.
func (b *BatchQueue) WaitingQuantile(k float64) (float64, error) {
	if err := checkQuantile(k); err != nil {
		return 0, err
	}
	return math.Max((math.Log(b.delta)-math.Log(1-k))/b.DecayRate(), 0), nil
}

// SojournQuantile evaluates eq. 8, the k-th quantile of the batch
// completion time:
//
//	(T_C)_k = −ln(1−k) / ((1−δ)(1−q)µ_S).
func (b *BatchQueue) SojournQuantile(k float64) (float64, error) {
	if err := checkQuantile(k); err != nil {
		return 0, err
	}
	return -math.Log(1-k) / b.DecayRate(), nil
}

// KeyLatencyBounds evaluates eq. 9: the k-th quantile of the
// per-key processing latency T_S at the server is bounded by the batch
// queueing-time quantile below and the batch completion-time quantile
// above:
//
//	(T_Q)_k < (T_S)_k <= (T_C)_k.
func (b *BatchQueue) KeyLatencyBounds(k float64) (lo, hi float64, err error) {
	lo, err = b.WaitingQuantile(k)
	if err != nil {
		return 0, 0, err
	}
	hi, err = b.SojournQuantile(k)
	return lo, hi, err
}

// MeanSojourn returns the mean batch completion time 1/((1−δ)(1−q)µ_S).
func (b *BatchQueue) MeanSojourn() float64 { return 1 / b.DecayRate() }

func checkQuantile(k float64) error {
	if math.IsNaN(k) || k < 0 || k >= 1 {
		return fmt.Errorf("queueing: quantile level %v must be in [0, 1)", k)
	}
	return nil
}
