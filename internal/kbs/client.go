package kbs

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"github.com/severifast/severifast/internal/policy"
	"github.com/severifast/severifast/internal/sim"
)

// Client speaks the broker protocol against a remote broker: sevf-attestd,
// or a facade GuestOwner. It implements Service, so a fleet is indifferent to
// whether the broker is in process or across the network — and a denial
// survives the round trip, all but its certificate and cause.
type Client struct {
	// Base is the server URL, e.g. "http://127.0.0.1:8553".
	Base string
}

var _ Service = (*Client)(nil)

// call sends req as JSON to path (a GET when req is nil) and decodes the
// reply into resp, if any. A 403 carrying a reason comes back as the
// remote broker's *policy.Denial.
func (c *Client) call(path string, req, resp any) error {
	var r *http.Response
	var err error
	if req == nil {
		r, err = http.Get(c.Base + path)
	} else {
		body, merr := json.Marshal(req)
		if merr != nil {
			return merr
		}
		r, err = http.Post(c.Base+path, "application/json", bytes.NewReader(body))
	}
	if err != nil {
		return err
	}
	defer r.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		return err
	}
	if r.StatusCode == http.StatusForbidden {
		var d denialBody
		if json.Unmarshal(raw, &d) == nil && d.Reason != "" {
			return &policy.Denial{Gate: policy.GateBroker, Rule: d.Rule, Reason: policy.Reason(d.Reason),
				Detail: d.Detail, Claim: d.Claim}
		}
	}
	if r.StatusCode != http.StatusOK {
		return fmt.Errorf("kbs: %s: %s: %s", path, r.Status, bytes.TrimSpace(raw))
	}
	if resp != nil {
		return json.Unmarshal(raw, resp)
	}
	return nil
}

// Challenge implements Service.
func (c *Client) Challenge(tenant string, now sim.Time) (Challenge, error) {
	var resp challengeResponse
	if err := c.call("/challenge", challengeRequest{Tenant: tenant, Now: int64(now)}, &resp); err != nil {
		return Challenge{}, err
	}
	var ch Challenge
	nonce, err := hex.DecodeString(resp.Nonce)
	if err != nil || len(nonce) != len(ch.Nonce) {
		return Challenge{}, fmt.Errorf("kbs: server nonce malformed")
	}
	copy(ch.Nonce[:], nonce)
	ch.Expires = sim.Time(resp.Expires)
	return ch, nil
}

// Redeem implements Service.
func (c *Client) Redeem(req RedeemRequest, now sim.Time) (*RedeemResult, error) {
	wire := redeemRequest{
		Tenant:   req.Tenant,
		Nonce:    hex.EncodeToString(req.Nonce[:]),
		Report:   hex.EncodeToString(req.Report),
		Chain:    hex.EncodeToString(req.Chain),
		GuestPub: hex.EncodeToString(req.GuestPub),
		Now:      int64(now),
	}
	var resp redeemResponse
	if err := c.call("/redeem", wire, &resp); err != nil {
		return nil, err
	}
	ownerPub, err := hex.DecodeString(resp.OwnerPub)
	if err != nil {
		return nil, fmt.Errorf("kbs: server bundle malformed: %w", err)
	}
	nonce, err := hex.DecodeString(resp.Nonce)
	if err != nil {
		return nil, fmt.Errorf("kbs: server bundle malformed: %w", err)
	}
	ct, err := hex.DecodeString(resp.Ciphertext)
	if err != nil {
		return nil, fmt.Errorf("kbs: server bundle malformed: %w", err)
	}
	return &RedeemResult{
		Bundle:        &Bundle{OwnerPub: ownerPub, Nonce: nonce, Ciphertext: ct},
		ChainCached:   resp.ChainCached,
		VerdictCached: resp.VerdictCached,
	}, nil
}

// File implements Service. The claim crosses the wire in policy's
// canonical encoding; the remote broker signs it.
func (c *Client) File(claim policy.Claim) error {
	return c.call("/claim", claimRequest{Claim: hex.EncodeToString(claim.Marshal())}, nil)
}
