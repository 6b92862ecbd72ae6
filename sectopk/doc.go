// Package sectopk is the public v1 API of the SecTopK system: adaptively
// CQA-secure top-k query processing over encrypted relations in the two
// non-colluding clouds model of Meng, Zhu, and Kollios (ICDE 2018), plus
// the secure top-k join operator of the paper's Section 12 and the
// secure kNN operator of Section 11.3.
//
// The package exposes the deployment roles as a coherent facade over
// the internal implementation packages:
//
//   - Owner — the data owner: generates keys, encrypts relations (top-k
//     and kNN record stores), issues query tokens, and reveals encrypted
//     results for authorized clients. JoinOwner is the multi-relation
//     variant for equi-joins.
//   - CryptoCloud — the crypto cloud S2: the only party holding
//     decryption keys. It serves blinded protocol rounds for any number
//     of registered relations, each under its own key material.
//   - DataCloud — the data cloud S1: hosts encrypted relations (Host,
//     HostJoin, HostKNN) and executes queries by driving protocol rounds
//     against a CryptoCloud, in-process or over TCP. One entry point —
//     Execute(ctx, Request) — runs all three workloads and returns an
//     Answer: the encrypted result plus that query's traffic accounting.
//     ServeClients puts it on the wire for remote queriers.
//   - Client — the authorized querier: holds trapdoors, dials a
//     DataCloud's client listener, and submits Requests over the client
//     wire protocol. It never holds key material; encrypted answers
//     travel back to the owner for revealing.
//
// # Contexts and cancellation
//
// Every blocking call path accepts a context.Context. Cancellation is
// cooperative and bounded by one protocol round: the engine checks the
// context between rounds, the worker pools check it inside their loops,
// and the TCP transport interrupts in-flight I/O, so a canceled query
// stops burning modular exponentiations promptly.
//
// # Errors
//
// Failures carry stable machine-readable codes that survive the wire:
// test them with errors.Is against ErrInvalidToken, ErrUnknownRelation,
// ErrProtocolVersion, ErrRelationExists, and ErrTransport. An error
// reported by the remote peer matches the same sentinels as one raised
// in-process.
//
// # Wire protocols
//
// A build has one wire version, carried in the preface every connection
// opens with: S1↔S2, querier↔S1 and front door↔member all ride the same
// multiplexed framing and the same structured error encoding, and a peer
// at any other version is refused with ErrProtocolVersion before any
// request. Hosting a relation runs a Hello round that confirms the crypto
// cloud serves it. See DESIGN.md "S1↔S2 wire" and "Client wire".
package sectopk
