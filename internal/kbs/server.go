package kbs

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"github.com/severifast/severifast/internal/policy"
	"github.com/severifast/severifast/internal/sim"
)

// The HTTP face of the broker, served by cmd/sevf-attestd. Virtual time
// travels in the request body — the broker has no clock of its own, so a
// remote broker behaves bit-for-bit like an in-process one.
//
// Denials are returned as 403 with a JSON {rule, reason, detail, claim}
// body; Client turns them back into the same *policy.Denial, so errors.Is
// and its claim work identically on both sides of the wire.

type challengeRequest struct {
	Tenant string `json:"tenant"`
	Now    int64  `json:"now"`
}

type challengeResponse struct {
	Nonce   string `json:"nonce"` // hex
	Expires int64  `json:"expires"`
}

type redeemRequest struct {
	Tenant   string `json:"tenant"`
	Nonce    string `json:"nonce"`     // hex
	Report   string `json:"report"`    // hex of psp.Report.Marshal()
	Chain    string `json:"chain"`     // hex of psp.Chain.Marshal()
	GuestPub string `json:"guest_pub"` // hex of the agent's X25519 key
	Now      int64  `json:"now"`
}

type redeemResponse struct {
	OwnerPub      string `json:"owner_pub"`
	Nonce         string `json:"nonce"`
	Ciphertext    string `json:"ciphertext"`
	ChainCached   bool   `json:"chain_cached"`
	VerdictCached bool   `json:"verdict_cached"`
}

type claimRequest struct {
	Claim string `json:"claim"` // hex of policy.Claim.Marshal(); the broker re-signs it
}

type denialBody struct {
	Rule   string `json:"rule,omitempty"`
	Reason string `json:"reason"`
	Detail string `json:"detail"`
	Claim  string `json:"claim,omitempty"`
}

// Handler exposes the broker over HTTP: POST /challenge, /redeem,
// /claim; GET /stats.
func (b *Broker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/challenge", func(w http.ResponseWriter, r *http.Request) {
		var req challengeRequest
		if !readJSON(w, r, &req) {
			return
		}
		c, err := b.Challenge(req.Tenant, sim.Time(req.Now))
		if err != nil {
			writeDenial(w, err)
			return
		}
		writeJSON(w, challengeResponse{
			Nonce:   hex.EncodeToString(c.Nonce[:]),
			Expires: int64(c.Expires),
		})
	})
	mux.HandleFunc("/redeem", func(w http.ResponseWriter, r *http.Request) {
		var req redeemRequest
		if !readJSON(w, r, &req) {
			return
		}
		var rr RedeemRequest
		rr.Tenant = req.Tenant
		nonce, err := hex.DecodeString(req.Nonce)
		if err != nil || len(nonce) != len(rr.Nonce) {
			http.Error(w, "nonce: want 32 hex-encoded bytes", http.StatusBadRequest)
			return
		}
		copy(rr.Nonce[:], nonce)
		if rr.Report, err = hex.DecodeString(req.Report); err != nil {
			http.Error(w, "report hex: "+err.Error(), http.StatusBadRequest)
			return
		}
		if rr.Chain, err = hex.DecodeString(req.Chain); err != nil {
			http.Error(w, "chain hex: "+err.Error(), http.StatusBadRequest)
			return
		}
		if rr.GuestPub, err = hex.DecodeString(req.GuestPub); err != nil {
			http.Error(w, "guest_pub hex: "+err.Error(), http.StatusBadRequest)
			return
		}
		res, err := b.Redeem(rr, sim.Time(req.Now))
		if err != nil {
			writeDenial(w, err)
			return
		}
		writeJSON(w, redeemResponse{
			OwnerPub:      hex.EncodeToString(res.Bundle.OwnerPub),
			Nonce:         hex.EncodeToString(res.Bundle.Nonce),
			Ciphertext:    hex.EncodeToString(res.Bundle.Ciphertext),
			ChainCached:   res.ChainCached,
			VerdictCached: res.VerdictCached,
		})
	})
	mux.HandleFunc("/claim", func(w http.ResponseWriter, r *http.Request) {
		var req claimRequest
		if !readJSON(w, r, &req) {
			return
		}
		raw, err := hex.DecodeString(req.Claim)
		if err != nil {
			http.Error(w, "claim hex: "+err.Error(), http.StatusBadRequest)
			return
		}
		c, err := policy.UnmarshalClaim(raw)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		switch err := b.File(*c); {
		case errors.Is(err, errClaimShape):
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		case errors.Is(err, errClaimKind):
			http.Error(w, err.Error(), http.StatusForbidden)
			return
		case err != nil:
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, struct{}{})
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		s, err := b.Stats()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, s)
	})
	return mux
}

func readJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		http.Error(w, "read: "+err.Error(), http.StatusBadRequest)
		return false
	}
	if err := json.Unmarshal(body, dst); err != nil {
		http.Error(w, "json: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// writeDenial maps a broker denial to 403 with its fields on the wire;
// anything else is a 500.
func writeDenial(w http.ResponseWriter, err error) {
	if d := policy.DenialOf(err); d != nil && d.Reason != "" {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusForbidden)
		_ = json.NewEncoder(w).Encode(denialBody{Rule: d.Rule, Reason: string(d.Reason), Detail: d.Detail, Claim: d.Claim})
		return
	}
	http.Error(w, err.Error(), http.StatusInternalServerError)
}
