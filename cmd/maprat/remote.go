package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/pkg/client"
)

// runRemote drives a live maprat-server through the pkg/client SDK: the
// same requests as local mode, but mining happens server-side.
func runRemote(ctx context.Context, w io.Writer, serverURL string, o runOpts) error {
	c, err := client.New(serverURL)
	if err != nil {
		return err
	}
	v, err := fetchRemote(ctx, c, o)
	if err != nil {
		return err
	}
	render(w, v, o.color)
	return nil
}

// fetchRemote runs one synchronous endpoint and returns its response
// document.
func fetchRemote(ctx context.Context, c *client.Client, o runOpts) (any, error) {
	switch o.op {
	case "group":
		return c.Group(ctx, o.params)
	case "drill":
		return c.Drill(ctx, o.params)
	case "evolution":
		return c.Evolution(ctx, o.params)
	default:
		return c.Explain(ctx, o.params)
	}
}

// runRemoteAppend posts one batch of new ratings from a JSON file (or
// stdin via "-") and prints the epoch the server accepted it at.
func runRemoteAppend(ctx context.Context, serverURL string, args []string) error {
	if len(args) != 1 {
		return errors.New("usage: maprat -server URL append <ratings.json | ->")
	}
	var (
		raw []byte
		err error
	)
	if args[0] == "-" {
		raw, err = io.ReadAll(os.Stdin)
	} else {
		raw, err = os.ReadFile(args[0])
	}
	if err != nil {
		return err
	}
	var ratings []client.RatingInput
	if err := json.Unmarshal(raw, &ratings); err != nil {
		return fmt.Errorf("parse ratings: %w", err)
	}
	c, err := client.New(serverURL)
	if err != nil {
		return err
	}
	resp, err := c.AppendRatings(ctx, "", ratings)
	if err != nil {
		return err
	}
	fmt.Printf("accepted %d ratings at epoch %d\n", resp.Accepted, resp.Epoch)
	return nil
}
