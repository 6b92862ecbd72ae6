package sectopk

import (
	"context"
	"net"

	"repro/internal/cloud"
	"repro/internal/secerr"
	"repro/internal/transport"
)

// CryptoCloud is the crypto cloud role (S2): the only party holding
// decryption keys. One CryptoCloud serves any number of registered
// relations, each under its own key material; every protocol request is
// routed on the relation ID it carries.
//
// Serve it over TCP with Serve, or hand it to a DataCloud in the same
// process via DataCloud.ConnectLocal.
type CryptoCloud struct {
	svc    *cloud.Service
	ledger *cloud.Ledger
}

// NewCryptoCloud builds an empty crypto cloud. A crypto cloud ignores
// every option: its encryption surfaces follow from the keys it holds.
// The variadic parameter lets every role take the one shared option list.
func NewCryptoCloud(opts ...Option) *CryptoCloud {
	return &CryptoCloud{svc: cloud.NewService(), ledger: cloud.NewLedger()}
}

// Register adds a relation under id with the owner-provisioned key
// material. Registering an ID twice fails with ErrRelationExists.
func (c *CryptoCloud) Register(id string, keys *Keys) error {
	if keys == nil || keys.km == nil {
		return secerr.New(secerr.CodeBadRequest, "sectopk: nil key material")
	}
	return c.svc.Register(id, keys.km, c.ledger)
}

// Deregister removes a relation and releases its background pools.
func (c *CryptoCloud) Deregister(id string) { c.svc.Deregister(id) }

// Relations lists the registered relation IDs, sorted.
func (c *CryptoCloud) Relations() []string { return c.svc.Relations() }

// Serve accepts connections from the listener until it closes or the
// context is canceled (which also closes open connections). Each
// connection is served on its own goroutine; protocol errors are reported
// to the peer as structured codes, never by tearing the process down.
func (c *CryptoCloud) Serve(ctx context.Context, l net.Listener) error {
	return transport.Serve(ctx, l, c.svc)
}

// LeakageEvents returns the newest 4096 things this cloud's handlers
// observed beyond declared ciphertext sizes — the leakage profile of
// Section 9 — as human-readable strings, oldest first.
func (c *CryptoCloud) LeakageEvents() []string { return c.ledger.Strings() }

// Close deregisters every relation and stops their background pools.
// Safe to call more than once.
func (c *CryptoCloud) Close() { c.svc.Close() }

// responder exposes the transport hook for in-process wiring.
func (c *CryptoCloud) responder() transport.Responder { return c.svc }
