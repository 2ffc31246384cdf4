package serve

import (
	"context"

	"kernelselect/internal/gemm"
)

// Engine is the transport-agnostic face of the decision engine: everything a
// caller needs to ask "which kernel configuration for this GEMM shape on this
// device?" without going through HTTP. *Server implements it; the cluster
// router consumes it for its router-local degraded fallback (answering
// priceable shapes when every replica is down), and embedded callers can run
// the full serving ladder — cache, admission, degradation, closed-loop
// accounting — in-process with no listener at all.
type Engine interface {
	// Decide answers one shape on one device backend (empty device selects
	// the default). It runs the same ladder as POST /v1/select: cache hit,
	// admission budget (exhaustion degrades to the fallback config), then the
	// pricing pass. It fails only for an unknown device, an invalid shape, or
	// a context that expires mid-computation — never for pricing failures,
	// which degrade instead.
	Decide(ctx context.Context, device string, shape gemm.Shape) (Decision, error)
}

// Decide implements Engine over the server's full serving ladder. It is the
// extraction point the HTTP handlers are built on: handleSelect runs the same
// probe and miss path with its own zero-allocation encoding, and every
// semantic branch — hit bypasses admission, budget exhaustion degrades,
// aborted decisions are not cached — is the same here, so a transport layered
// over Decide serves exactly what the HTTP surface serves.
func (s *Server) Decide(ctx context.Context, device string, shape gemm.Shape) (Decision, error) {
	be, err := s.backend(device)
	if err != nil {
		return Decision{}, err
	}
	if err := shape.Validate(); err != nil {
		return Decision{}, err
	}
	// Cache hits are O(1) and bypass admission entirely, exactly like the
	// HTTP fast path: even a saturated backend keeps answering its
	// steady-state shapes at full quality.
	gen := be.gen.Load()
	if d, ok := s.hit(be, gen, shape); ok {
		return d, nil
	}
	release, ok := be.acquire()
	if !ok {
		return s.degradedDecision(be, gen, shape, reasonBudget), nil
	}
	defer release()
	be.inflight.Add(1)
	defer be.inflight.Add(-1)
	return s.miss(ctx, be, gen, shape)
}
