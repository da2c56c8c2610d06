package workload

import (
	"fmt"
	"math"

	"pools/internal/rng"
)

// serviceClasses is the number of zipf service-time classes an ArrivalGen
// distinguishes. Class k (1-based) takes k service units, weighted
// k^-ServiceZipf; 256 classes give the heavy tail three decades of spread
// while the cumulative-weight table stays one cache line per generator.
const serviceClasses = 256

// DefaultBurstLen is the mean number of arrivals per burst when
// Arrivals.Burstiness > 1 and BurstLen is left zero.
const DefaultBurstLen = 8

// Arrivals describes an open-loop arrival process for one process: unlike
// the closed-loop models (where the next operation starts when the
// previous one finishes), operations arrive on their own clock and queue
// behind a busy process, so overload shows up as unbounded sojourn times
// instead of a longer makespan. This is the ROADMAP's "heavy traffic"
// regime: arrival rate is set by the outside world, and the quantity to
// watch is the tail of sojourn time (completion minus arrival).
type Arrivals struct {
	// Lambda is the mean arrival rate per process, in arrivals per µs
	// (virtual µs under sim.Run, wall-clock under harness.RealRun).
	// Required (> 0). The per-process service rate on the simulated
	// Butterfly is roughly 1/(200µs + ServiceMean), so Lambda near that
	// reciprocal saturates a process.
	Lambda float64

	// Burstiness selects the inter-arrival process. Values <= 1 give
	// Poisson arrivals (exponential gaps of mean 1/Lambda). Values > 1
	// give the bursty-exponential process: arrivals come in bursts of
	// geometrically distributed length (mean BurstLen) with short
	// within-burst gaps of mean 1/(Burstiness*Lambda), separated by long
	// idle gaps sized so the overall mean rate stays exactly Lambda.
	Burstiness float64

	// BurstLen is the mean number of arrivals per burst when Burstiness
	// > 1. 0 means DefaultBurstLen.
	BurstLen float64

	// ServiceMean is the mean post-operation service time in µs — the
	// work a process does with each element outside the pool. 0 means no
	// service time.
	ServiceMean int64

	// ServiceZipf shapes service times across serviceClasses classes with
	// weight k^-ServiceZipf for class k; draws are scaled so the mean
	// stays ServiceMean. 0 (or no ServiceMean) makes every service take
	// exactly ServiceMean. Exponents near 1 give the heavy-tailed service
	// mix that separates p50 from p999.
	ServiceZipf float64
}

// Validate reports configuration errors.
func (a Arrivals) Validate() error {
	if a.Lambda <= 0 || math.IsNaN(a.Lambda) || math.IsInf(a.Lambda, 0) {
		return fmt.Errorf("workload: Arrivals.Lambda = %v, need > 0", a.Lambda)
	}
	if a.Burstiness < 0 || a.BurstLen < 0 {
		return fmt.Errorf("workload: negative Arrivals shape (Burstiness=%v, BurstLen=%v)", a.Burstiness, a.BurstLen)
	}
	if a.BurstLen > 0 && a.BurstLen < 1 {
		return fmt.Errorf("workload: Arrivals.BurstLen = %v, need >= 1 (mean arrivals per burst)", a.BurstLen)
	}
	if a.ServiceMean < 0 || a.ServiceZipf < 0 {
		return fmt.Errorf("workload: negative Arrivals service (ServiceMean=%v, ServiceZipf=%v)", a.ServiceMean, a.ServiceZipf)
	}
	return nil
}

// ArrivalGen draws one process's arrival stream: inter-arrival gaps and
// per-arrival service times, in µs. It is deterministic in (proc,
// trialSeed) and not safe for concurrent use; each process owns one. All
// allocation happens at Gen time — Next is allocation-free.
type ArrivalGen struct {
	rng     *rng.Xoshiro256
	onMean  float64                 // within-burst (or Poisson) mean gap
	offMean float64                 // between-burst mean gap (0 = pure Poisson)
	burst   float64                 // mean arrivals per burst
	left    int                     // arrivals remaining in the current burst
	svc     [serviceClasses]int64   // service time per zipf class
	svcCum  [serviceClasses]float64 // cumulative class weights, normalized to 1
	svcFlat int64                   // deterministic service time when zipf is off (-1 = zipf on)
}

// Gen builds the arrival generator for processor proc under trial seed
// trialSeed. The stream is independent of the operation Chooser's (a
// distinct rng substream), so the op mix and the arrival clock do not
// correlate.
func (a Arrivals) Gen(proc int, trialSeed uint64) *ArrivalGen {
	// Offset the rng stream index so the arrival stream never collides
	// with the Chooser's SubSeed(trialSeed, proc) op-mix stream.
	const arrivalStream = 1 << 20
	g := &ArrivalGen{
		rng:    rng.NewXoshiro256(rng.SubSeed(trialSeed, arrivalStream+proc)),
		onMean: 1 / a.Lambda,
		burst:  a.BurstLen,
	}
	if a.Burstiness > 1 {
		if g.burst == 0 {
			g.burst = DefaultBurstLen
		}
		// Within-burst gaps shrink by the burstiness factor; the idle gap
		// between bursts restores the overall mean to exactly 1/Lambda:
		// each burst cycle holds `burst` arrivals over one off-gap plus
		// `burst` on-gaps, so offMean = burst*(1/λ − onMean).
		g.onMean = 1 / (a.Burstiness * a.Lambda)
		g.offMean = g.burst * (1/a.Lambda - g.onMean)
	}
	g.svcFlat = a.ServiceMean
	if a.ServiceMean > 0 && a.ServiceZipf > 0 {
		g.svcFlat = -1
		// Class k takes k service units with weight k^-zipf; the unit is
		// chosen so the mean over the class distribution is ServiceMean.
		var wsum, ksum float64
		for k := 1; k <= serviceClasses; k++ {
			w := math.Pow(float64(k), -a.ServiceZipf)
			wsum += w
			ksum += w * float64(k)
			g.svcCum[k-1] = wsum
		}
		unit := float64(a.ServiceMean) * wsum / ksum
		for k := 1; k <= serviceClasses; k++ {
			g.svcCum[k-1] /= wsum
			s := int64(math.Round(unit * float64(k)))
			if s < 1 {
				s = 1
			}
			g.svc[k-1] = s
		}
	}
	return g
}

// exp draws an exponential with the given mean, rounded up to at least
// 1 µs so virtual-time drivers always advance.
func (g *ArrivalGen) exp(mean float64) int64 {
	u := g.rng.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	d := int64(math.Round(-math.Log(1-u) * mean))
	if d < 1 {
		d = 1
	}
	return d
}

// Next returns the gap to the next arrival and that arrival's service
// time, both in µs. Next never allocates.
func (g *ArrivalGen) Next() (gap, service int64) {
	if g.offMean <= 0 {
		gap = g.exp(g.onMean)
	} else {
		if g.left <= 0 {
			// Start a new burst after a long idle gap; the burst length is
			// ~geometric with mean g.burst.
			gap = g.exp(g.offMean)
			g.left = 1
			if g.burst > 1 {
				g.left += int(g.exp(g.burst - 1))
			}
		} else {
			gap = g.exp(g.onMean)
		}
		g.left--
	}
	if g.svcFlat >= 0 {
		return gap, g.svcFlat
	}
	u := g.rng.Float64()
	lo, hi := 0, serviceClasses-1
	for lo < hi {
		mid := (lo + hi) / 2
		if g.svcCum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return gap, g.svc[lo]
}

// MeanService returns the analytic mean of the service distribution the
// generator draws from (ServiceMean by construction; exposed for tests
// and capacity planning).
func (a Arrivals) MeanService() float64 { return float64(a.ServiceMean) }

// TenantCount returns the effective number of tenants: Config.Tenants,
// clamped to [1, Procs].
func (c Config) TenantCount() int {
	n := c.Tenants
	if n < 1 {
		n = 1
	}
	if n > c.Procs {
		n = c.Procs
	}
	return n
}

// TenantOf returns the tenant owning processor proc: contiguous blocks,
// the same partition policy.EvenTenants builds for segments, so a process
// and its own segment always agree.
func (c Config) TenantOf(proc int) int {
	n := c.TenantCount()
	if n <= 1 || proc < 0 || proc >= c.Procs {
		return 0
	}
	return proc * n / c.Procs
}

// TenantMapping returns the tenant id of every processor — the slice to
// hand policy.TenantMap and the tenant-aware placements.
func (c Config) TenantMapping() []int {
	m := make([]int, c.Procs)
	for p := range m {
		m[p] = c.TenantOf(p)
	}
	return m
}

// TenantWeight returns tenant t's arrival-rate multiplier under the
// zipf(TenantSkew) tenant skew, normalized so the mean multiplier across
// tenants is 1 (total offered load is skew-invariant): weight t+1 raised
// to -TenantSkew, scaled. Skew 0 gives every tenant weight 1; higher skew
// concentrates load on tenant 0.
func (c Config) TenantWeight(t int) float64 {
	n := c.TenantCount()
	if n <= 1 || c.TenantSkew == 0 {
		return 1
	}
	var sum float64
	for i := 0; i < n; i++ {
		sum += math.Pow(float64(i+1), -c.TenantSkew)
	}
	return math.Pow(float64(t+1), -c.TenantSkew) * float64(n) / sum
}

// ArrivalsFor returns processor proc's arrival process: the configured
// Arrivals with Lambda scaled by the processor's tenant weight. Drivers
// call this once per process at startup.
func (c Config) ArrivalsFor(proc int) Arrivals {
	a := c.Arrivals
	a.Lambda *= c.TenantWeight(c.TenantOf(proc))
	return a
}
