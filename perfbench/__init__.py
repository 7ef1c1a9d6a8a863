"""Host-time benchmark of the llm.npu reproduction (see NOTES.md)."""
