package serve

import (
	"kernelselect/internal/gemm"
)

// Engine is the transport-agnostic face of the decision engine: everything a
// caller needs to ask "which kernel configuration for this GEMM shape on this
// device?" without going through HTTP. *Server implements it, answering with
// the selector's choice exactly as the HTTP surface does. The cluster router
// consumes it when every replica of a shape is down: it serves that same
// choice, stamped degraded with reason "replica_down". Embedded callers can
// ask in-process with no listener at all.
type Engine interface {
	// Decide answers one shape on one device backend (empty device selects
	// the default). It fails only for an unknown device or an invalid shape.
	Decide(device string, shape gemm.Shape) (Decision, error)
}

// Decide implements Engine over the same decision path POST /v1/select
// takes, so a transport layered over Decide serves exactly what the HTTP
// surface serves. It allocates only the decision's shape string, which the
// HTTP handler renders straight into its response instead.
func (s *Server) Decide(device string, shape gemm.Shape) (Decision, error) {
	be, err := s.backend(device)
	if err != nil {
		return Decision{}, err
	}
	if err := shape.Validate(); err != nil {
		return Decision{}, err
	}
	d := s.selection(be, be.gen.Load(), shape)
	d.Shape = shape.String()
	return d, nil
}
