package cloud

import (
	"context"
	"sort"
	"sync"

	"repro/internal/secerr"
)

// Service is the multi-relation crypto cloud: a registry of relation IDs
// to per-relation Servers (each with its own key material and encryption
// surfaces). It implements
// transport.Responder by routing every protocol request on the relation
// ID it carries, so one S2 process serves many outsourced relations — the
// many-relations deployment Section 3.2's architecture assumes.
//
// Registration order is unconstrained and registration is safe while the
// service is serving traffic.
type Service struct {
	mu        sync.RWMutex
	relations map[string]*Server
	closed    bool
}

// NewService returns an empty registry.
func NewService() *Service {
	return &Service{relations: make(map[string]*Server)}
}

// Register builds a Server for the relation's key material and adds it
// under id. It fails with secerr.ErrRelationExists when the ID is taken.
func (s *Service) Register(id string, keys *KeyMaterial, ledger *Ledger) error {
	if id == "" {
		return secerr.New(secerr.CodeBadRequest, "cloud: empty relation id")
	}
	// Cheap pre-check before paying for encryptor/pool construction; the
	// authoritative re-check happens under the write lock below.
	s.mu.RLock()
	_, taken := s.relations[id]
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return secerr.New(secerr.CodeInternal, "cloud: service is closed")
	}
	if taken {
		return secerr.New(secerr.CodeRelationExists, "cloud: relation %q already registered", id)
	}
	srv, err := NewServer(keys, ledger)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		srv.Close()
		return secerr.New(secerr.CodeInternal, "cloud: service is closed")
	}
	if _, ok := s.relations[id]; ok {
		srv.Close()
		return secerr.New(secerr.CodeRelationExists, "cloud: relation %q already registered", id)
	}
	s.relations[id] = srv
	return nil
}

// Deregister removes a relation and releases its server's background
// pools. Unknown IDs are a no-op.
func (s *Service) Deregister(id string) {
	s.mu.Lock()
	srv := s.relations[id]
	delete(s.relations, id)
	s.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
}

// Relation returns the server registered under id (nil when absent).
func (s *Service) Relation(id string) *Server {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.relations[id]
}

// Relations lists the registered relation IDs, sorted.
func (s *Service) Relations() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.relations))
	for id := range s.relations {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Close deregisters every relation and releases their servers. The
// service rejects registrations afterwards; safe to call more than once.
func (s *Service) Close() {
	s.mu.Lock()
	servers := make([]*Server, 0, len(s.relations))
	for _, srv := range s.relations {
		servers = append(servers, srv)
	}
	s.relations = make(map[string]*Server)
	s.closed = true
	s.mu.Unlock()
	for _, srv := range servers {
		srv.Close()
	}
}

// Serve implements transport.Responder: Hello checks that the relation it
// names is registered; every other method routes to the Server
// registered for the request's relation ID.
func (s *Service) Serve(ctx context.Context, method string, body []byte) ([]byte, error) {
	return serve(ctx, s, method, body)
}

func (s *Service) route(relation string) (*Server, error) {
	if srv := s.Relation(relation); srv != nil {
		return srv, nil
	}
	return nil, secerr.New(secerr.CodeUnknownRelation, "cloud: relation %q not registered", relation)
}
