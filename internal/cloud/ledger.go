package cloud

import (
	"fmt"
	"sync"
)

// Event is one leakage observation recorded by a party during a protocol
// round: what the party could compute from its view beyond the declared
// ciphertexts.
type Event struct {
	Party  string // "S1" or "S2"
	Method string // protocol round that produced the observation
	Detail string // human-readable description of the observation
}

func (e Event) String() string {
	return fmt.Sprintf("[%s] %s: %s", e.Party, e.Method, e.Detail)
}

// LedgerWindow is how many events a Ledger keeps: the newest ones, so a
// long-running party holds flat memory however many queries it serves.
const LedgerWindow = 4096

// Ledger keeps the newest LedgerWindow leakage events. The security tests
// assert that the recorded views match the leakage functions of Section 9
// (query pattern, halting depth, per-depth equality pattern) and Section
// 10 (uniqueness pattern for SecDupElim) — and nothing else.
type Ledger struct {
	mu     sync.Mutex
	events []Event // a ring once it holds LedgerWindow events
	next   int     // where the ring writes next: its oldest event
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return &Ledger{} }

// Record adds an event, dropping the oldest once the window is full. A nil
// ledger ignores the call, so recording is always safe.
func (l *Ledger) Record(party, method, format string, args ...any) {
	if l == nil {
		return
	}
	ev := Event{Party: party, Method: method, Detail: fmt.Sprintf(format, args...)}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.events) < LedgerWindow {
		l.events = append(l.events, ev)
		return
	}
	l.events[l.next] = ev
	l.next = (l.next + 1) % LedgerWindow
}

// Events returns a copy of the kept events, oldest first.
func (l *Ledger) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, len(l.events))
	return append(append(out, l.events[l.next:]...), l.events[:l.next]...)
}

// Strings returns the kept events, oldest first, as human-readable lines.
func (l *Ledger) Strings() []string {
	events := l.Events()
	out := make([]string, len(events))
	for i, e := range events {
		out[i] = e.String()
	}
	return out
}

// Reset clears the ledger.
func (l *Ledger) Reset() {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events, l.next = nil, 0
}

// ByMethod returns the events recorded for one method.
func (l *Ledger) ByMethod(method string) []Event {
	var out []Event
	for _, e := range l.Events() {
		if e.Method == method {
			out = append(out, e)
		}
	}
	return out
}
